#!/usr/bin/env python3
"""Launch a real MinBFT cluster on loopback and assert commit progress.

Spawns R replica processes plus one client of examples/minbft_kv (the real
UDP mode behind the runtime boundary), waits for the client to drive its
closed-loop workload to completion, then tears the replicas down with
SIGTERM and checks their exit reports. Stdlib-only; used by CI as the
"does the binary actually work as separate OS processes" gate that no
in-process test can provide.

Usage:
    python3 tools/run_local_cluster.py [--binary build/examples/minbft_kv]
        [--replicas 4] [--requests 8] [--timeout-s 60]
        [--recv-batch 32] [--send-batch 64]

--recv-batch/--send-batch are passed through to every process.

Exit status: the client's (0 iff every request committed), or 1 on
launch/teardown failures.
"""

import argparse
import os
import re
import signal
import socket
import subprocess
import sys
import time


def free_ports(n):
    """Reserve n distinct UDP ports by binding ephemeral sockets.

    The sockets are closed right before launch, so a tiny reuse race
    remains — fine on a CI box where nothing else churns UDP ports.
    """
    socks = [socket.socket(socket.AF_INET, socket.SOCK_DGRAM) for _ in range(n)]
    for s in socks:
        s.bind(("127.0.0.1", 0))
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", default="build/examples/minbft_kv")
    parser.add_argument("--replicas", type=int, default=4)
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--timeout-s", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--recv-batch", type=int, default=32)
    parser.add_argument("--send-batch", type=int, default=64)
    args = parser.parse_args()

    binary = os.path.abspath(args.binary)
    if not os.access(binary, os.X_OK) and not os.path.isabs(args.binary):
        # Relative path: also try against the repo root, so the script
        # works from any cwd.
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        binary = os.path.join(repo_root, args.binary)
    if not os.access(binary, os.X_OK):
        print(f"error: {binary} not found or not executable "
              "(build the repo first)", file=sys.stderr)
        return 1

    total = args.replicas + 1  # + the client, the highest id
    ports = free_ports(total)
    peers = ",".join(f"127.0.0.1:{p}" for p in ports)

    def cmd(pid):
        return [
            binary,
            "--id", str(pid),
            "--listen", f"127.0.0.1:{ports[pid]}",
            "--peers", peers,
            "--replicas", str(args.replicas),
            "--requests", str(args.requests),
            "--seed", str(args.seed),
            "--timeout-s", str(args.timeout_s),
            "--recv-batch", str(args.recv_batch),
            "--send-batch", str(args.send_batch),
        ]

    replicas = []
    try:
        for pid in range(args.replicas):
            replicas.append(subprocess.Popen(
                cmd(pid), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True))
        # Replicas bind before printing their banner; a beat is enough for
        # all sockets to exist (and UDP loss is retried anyway).
        time.sleep(0.3)
        for pid, proc in enumerate(replicas):
            if proc.poll() is not None:
                print(f"error: replica {pid} exited early "
                      f"(rc={proc.returncode})", file=sys.stderr)
                print(proc.stdout.read(), file=sys.stderr)
                return 1

        client = subprocess.Popen(
            cmd(args.replicas), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            # The client enforces --timeout-s itself; the margin here only
            # covers process startup, so a hang still fails loudly.
            client_out, _ = client.communicate(timeout=args.timeout_s + 30)
        except subprocess.TimeoutExpired:
            client.kill()
            client_out, _ = client.communicate()
            print("error: client timed out", file=sys.stderr)
            print(client_out, file=sys.stderr)
            return 1
        sys.stdout.write(client_out)

        m = re.search(r"completed=(\d+) gave_up=(\d+)", client_out)
        if not m:
            print("error: client printed no completion report",
                  file=sys.stderr)
            return 1
        completed, gave_up = int(m.group(1)), int(m.group(2))
        if completed < args.requests or gave_up:
            print(f"error: commit progress check failed: "
                  f"completed={completed}/{args.requests} gave_up={gave_up}",
                  file=sys.stderr)
            return client.returncode or 1

        # Orderly teardown: SIGTERM makes each replica print its final
        # executed count; at least f+1 must have executed the full workload
        # (the commit quorum — the rest may lag, that is the protocol).
        caught_up = 0
        for pid, proc in enumerate(replicas):
            proc.send_signal(signal.SIGTERM)
        for pid, proc in enumerate(replicas):
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
                print(f"error: replica {pid} ignored SIGTERM",
                      file=sys.stderr)
                return 1
            sys.stdout.write(out)
            rm = re.search(r"executed=(\d+)", out)
            if rm and int(rm.group(1)) >= args.requests:
                caught_up += 1
        f = (args.replicas - 1) // 2
        if caught_up < f + 1:
            print(f"error: only {caught_up} replicas executed all "
                  f"{args.requests} commands (need >= f+1 = {f + 1})",
                  file=sys.stderr)
            return 1

        print(f"ok: {completed}/{args.requests} committed, "
              f"{caught_up}/{args.replicas} replicas fully caught up")
        return client.returncode
    finally:
        for proc in replicas:
            if proc.poll() is None:
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
