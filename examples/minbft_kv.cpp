// A Byzantine fault tolerant key-value store on trusted hardware.
//
// Two modes, same protocol code either way (the point of the runtime
// boundary):
//
//   Simulation (no arguments):  ./build/examples/minbft_kv
//     Runs a MinBFT replica group (n = 2f+1 = 3, each replica holding a
//     simulated SGX USIG enclave), serves a client workload, then crashes
//     the primary mid-run and shows the view change recovering — all
//     inside the deterministic simulator.
//
//   Real deployment (one OS process per flag set):
//     ./build/examples/minbft_kv --id 0 --listen 127.0.0.1:9000
//         --peers 127.0.0.1:9000,...,127.0.0.1:9004 --replicas 4
//     The peer list is the membership: entry i is process i's UDP
//     endpoint. Ids [0, --replicas) run MinBFT replicas; the remaining
//     ids run closed-loop clients submitting --requests PUT/GET commands.
//     Replicas serve until SIGINT/SIGTERM; a client exits 0 iff every
//     request committed. All processes must share --seed: provisioning
//     derives every process's keys from it, which is what lets USIG
//     attestations verify across machine boundaries with no key exchange.
//   Chaos extensions (real mode; see DESIGN.md §14 and
//   tools/run_chaos_cluster.py):
//     --durable-dir DIR   persist replica state (protocol image + sealed
//                         USIG counter) in a runtime::FileDurableStore; a
//                         kill -9'd replica restarted with the same DIR
//                         recovers from disk and rejoins via state transfer
//     --volatile-usig     do NOT persist/reload the USIG counter (the PR-4
//                         negative experiment: restarts rewind the counter
//                         and the log can fork)
//     --fault-plan FILE   runtime::FaultPlan text file: seeded drop/delay/
//                         duplicate/corrupt rates and partition epochs
//     --max-attempts N    client give-up bound (0 = retry forever); an
//                         abandoned request makes the client exit 3
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "runtime/durable_file.h"
#include "runtime/fault.h"
#include "runtime/real_runtime.h"
#include "sim/adversaries.h"
#include "wire/channels.h"

using namespace unidir;
using namespace unidir::agreement;

namespace {

// ---- simulation mode (the original demo, unchanged) ------------------------

int run_sim_demo() {
  constexpr std::size_t kF = 1;
  constexpr std::size_t kN = 2 * kF + 1;

  sim::World world(/*seed=*/7,
                   std::make_unique<sim::RandomDelayAdversary>(1, 6));
  SgxUsigDirectory usigs(world.keys());

  MinBftReplica::Options options;
  options.f = kF;
  for (ProcessId i = 0; i < kN; ++i) options.replicas.push_back(i);

  std::vector<MinBftReplica*> replicas;
  for (std::size_t i = 0; i < kN; ++i)
    replicas.push_back(&world.spawn<MinBftReplica>(
        options, usigs, std::make_unique<KvStateMachine>()));

  SmrClient::Options copt;
  copt.replicas = options.replicas;
  copt.f = kF;
  auto& client = world.spawn<SmrClient>(copt);

  std::printf("MinBFT KV store: n=%zu replicas tolerate f=%zu Byzantine "
              "(PBFT would need %zu)\n\n",
              kN, kF, 3 * kF + 1);

  auto put = [&](std::string key, std::string value) {
    client.submit(KvStateMachine::put_op(key, value),
                  [key, value, &world](const Bytes&) {
                    std::printf("  t=%-5llu PUT %s=%s committed\n",
                                static_cast<unsigned long long>(world.now()),
                                key.c_str(), value.c_str());
                  });
  };
  auto get = [&](std::string key) {
    client.submit(KvStateMachine::get_op(key),
                  [key, &world](const Bytes& result) {
                    std::printf("  t=%-5llu GET %s -> \"%s\"\n",
                                static_cast<unsigned long long>(world.now()),
                                key.c_str(), string_of(result).c_str());
                  });
  };

  put("language", "c++20");
  put("paper", "classifying trusted hardware");
  get("language");
  put("venue", "PODC 2021");
  get("venue");

  world.start();
  // Serve the first couple of requests under the original primary…
  world.run_until([&] { return client.completed() >= 2; });
  std::printf("\n  t=%-5llu *** crashing the primary (replica 0) ***\n\n",
              static_cast<unsigned long long>(world.now()));
  world.crash(0);
  world.run_to_quiescence();

  std::puts("");
  std::printf("client completed %llu/5 requests\n",
              static_cast<unsigned long long>(client.completed()));
  for (auto* r : replicas) {
    if (!world.correct(r->id())) continue;
    std::printf("replica %u: view=%llu, executed %llu commands, state "
                "digest %s…\n",
                r->id(), static_cast<unsigned long long>(r->view()),
                static_cast<unsigned long long>(r->executed_count()),
                to_hex(ByteSpan(r->state_digest().data(), 8)).c_str());
  }

  // The safety property, checked explicitly:
  std::vector<std::pair<ProcessId, const ExecutionLog*>> logs;
  for (auto* r : replicas)
    if (world.correct(r->id()))
      logs.emplace_back(r->id(), &r->execution_log());
  const auto divergence = check_execution_consistency(logs);
  std::printf("execution logs prefix-consistent: %s\n",
              divergence ? divergence->c_str() : "yes");

  // The typed wire layer accounts every protocol message by channel and
  // type — no instrumentation in the protocol code itself.
  std::puts("\nwire traffic on the MinBFT protocol channel:");
  const wire::ChannelStats& ws = world.wire_stats().channel(wire::kMinBftCh);
  for (const auto& [tag, t] : ws.types)
    std::printf("  %-18s sent=%-4llu received=%-4llu bytes_sent=%llu\n",
                t.name, static_cast<unsigned long long>(t.sent),
                static_cast<unsigned long long>(t.received),
                static_cast<unsigned long long>(t.bytes_sent));
  std::printf("  dropped: malformed=%llu unknown_tag=%llu filtered=%llu\n",
              static_cast<unsigned long long>(ws.dropped_malformed),
              static_cast<unsigned long long>(ws.dropped_unknown_tag),
              static_cast<unsigned long long>(ws.dropped_filtered));
  return divergence ? 1 : 0;
}

// ---- real mode -------------------------------------------------------------

// SIGINT/SIGTERM request shutdown. The flag is only ever read by run_until
// predicates, which the loop re-checks at least every 50ms wait slice —
// nothing async-signal-unsafe happens in the handler itself.
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

struct RealConfig {
  ProcessId id = 0;
  std::string listen;
  std::vector<std::string> peers;  // entry i = process i's ip:port
  std::size_t replicas = 4;
  std::uint64_t requests = 8;
  std::uint64_t tick_us = 200;  // 0.2ms: protocol tick constants -> wall time
  std::uint64_t seed = 7;
  std::uint64_t timeout_s = 30;  // client-side wall-clock give-up
  std::string durable_dir;       // empty: replica state is memory-only
  bool volatile_usig = false;    // skip USIG counter persistence (negative)
  std::string fault_plan;        // FaultPlan text file; empty: no faults
  std::uint64_t max_attempts = 10;  // client attempts per request; 0=forever
  std::uint64_t vc_timeout_ticks = 0;  // 0: protocol default
  std::uint64_t chain_interval = 0;  // chains= sample stride; 0: ckpt interval
  std::uint64_t think_ticks = 0;     // client gap between requests
  std::size_t recv_batch = 32;   // datagrams per recvmmsg burst
  std::size_t send_batch = 64;   // frames coalesced per sendmmsg flush
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s                     (deterministic simulation demo)\n"
      "       %s --id I --listen IP:PORT --peers IP:PORT,IP:PORT,...\n"
      "          [--replicas R] [--requests N] [--tick-us T] [--seed S]\n"
      "          [--timeout-s W] [--durable-dir D] [--volatile-usig]\n"
      "          [--fault-plan F] [--max-attempts A] [--vc-timeout-ticks V]\n"
      "          [--chain-interval C] [--think-ticks G]\n"
      "          [--recv-batch B] [--send-batch B]\n"
      "          (one real UDP process of a cluster)\n"
      "peer list entry i is process i's endpoint; ids [0,R) are replicas,\n"
      "the rest are clients. Every process must get the same --peers,\n"
      "--replicas and --seed. A replica restarted with its previous\n"
      "--durable-dir recovers from disk; clients exit 3 when any request\n"
      "exhausted --max-attempts. Any process exits 4 if its UDP receiver\n"
      "dies (it would otherwise keep running deaf).\n",
      argv0, argv0);
}

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool parse_args(int argc, char** argv, RealConfig& cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (flag == "--id" && (v = value()))
      cfg.id = static_cast<ProcessId>(std::strtoul(v, nullptr, 10));
    else if (flag == "--listen" && (v = value()))
      cfg.listen = v;
    else if (flag == "--peers" && (v = value()))
      cfg.peers = split_commas(v);
    else if (flag == "--replicas" && (v = value()))
      cfg.replicas = std::strtoul(v, nullptr, 10);
    else if (flag == "--requests" && (v = value()))
      cfg.requests = std::strtoull(v, nullptr, 10);
    else if (flag == "--tick-us" && (v = value()))
      cfg.tick_us = std::strtoull(v, nullptr, 10);
    else if (flag == "--seed" && (v = value()))
      cfg.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--timeout-s" && (v = value()))
      cfg.timeout_s = std::strtoull(v, nullptr, 10);
    else if (flag == "--durable-dir" && (v = value()))
      cfg.durable_dir = v;
    else if (flag == "--volatile-usig") {
      cfg.volatile_usig = true;
      v = "";  // valueless flag; satisfy the missing-value check below
    }
    else if (flag == "--fault-plan" && (v = value()))
      cfg.fault_plan = v;
    else if (flag == "--max-attempts" && (v = value()))
      cfg.max_attempts = std::strtoull(v, nullptr, 10);
    else if (flag == "--vc-timeout-ticks" && (v = value()))
      cfg.vc_timeout_ticks = std::strtoull(v, nullptr, 10);
    else if (flag == "--chain-interval" && (v = value()))
      cfg.chain_interval = std::strtoull(v, nullptr, 10);
    else if (flag == "--think-ticks" && (v = value()))
      cfg.think_ticks = std::strtoull(v, nullptr, 10);
    else if (flag == "--recv-batch" && (v = value()))
      cfg.recv_batch = std::strtoul(v, nullptr, 10);
    else if (flag == "--send-batch" && (v = value()))
      cfg.send_batch = std::strtoul(v, nullptr, 10);
    else {
      if (flag != "--help" && flag != "-h")
        std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
    if (v == nullptr) return false;
  }
  if (cfg.listen.empty() || cfg.peers.empty() ||
      cfg.id >= cfg.peers.size() || cfg.replicas >= cfg.peers.size() ||
      cfg.replicas < 3 || cfg.tick_us == 0) {
    std::fprintf(stderr, "need --listen, --peers with > --replicas (>= 3) "
                         "entries, and --id within the peer list\n");
    return false;
  }
  return true;
}

/// Sampled chain digests of the execution log, "count:hex8" at every
/// checkpoint-interval boundary plus the head — what the chaos harness
/// compares across replicas for prefix consistency (matching counts must
/// have matching digests; see ExecutionLog::digest_through).
std::string chain_samples(const ExecutionLog& log, std::uint64_t interval) {
  std::ostringstream os;
  bool first = true;
  auto emit = [&](std::uint64_t count) {
    if (!first) os << ",";
    first = false;
    const crypto::Digest d = log.digest_through(count);
    os << count << ":" << to_hex(ByteSpan(d.data(), 8));
  };
  // Start at the first interval boundary not pruned away (count 0 is the
  // shared zero anchor — no information, skip it).
  std::uint64_t at = (log.base() + interval - 1) / interval * interval;
  if (at == 0) at = interval;
  for (; at <= log.size(); at += interval) emit(at);
  if (log.size() % interval != 0 || log.size() < log.base() + 1)
    emit(log.size());
  return os.str();
}

int run_real(const RealConfig& cfg) {
  const std::size_t total = cfg.peers.size();
  const std::size_t f = (cfg.replicas - 1) / 2;  // MinBFT: n = 2f+1

  // The fault plan applies at two layers: frame-level tx corruption inside
  // the runtime (so damage hits the wire format and dies in the peer's
  // hardened frame decoder) and drop/delay/duplicate/partition at the
  // World's transport boundary. The seed is mixed with the process id so
  // every process mangles an independent stream.
  runtime::FaultPlan plan;
  if (!cfg.fault_plan.empty()) {
    std::ifstream in(cfg.fault_plan);
    std::stringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) {
      std::fprintf(stderr, "cannot read fault plan %s\n",
                   cfg.fault_plan.c_str());
      return 2;
    }
    auto parsed = runtime::FaultPlan::parse_text(buf.str());
    if (!parsed) {
      std::fprintf(stderr, "malformed fault plan %s\n",
                   cfg.fault_plan.c_str());
      return 2;
    }
    plan = std::move(*parsed);
    plan.seed = plan.seed * 1000003 + cfg.id;
  }

  runtime::RealRuntimeOptions ropt;
  ropt.tick_ns = cfg.tick_us * 1000;
  ropt.listen = cfg.listen;
  ropt.recv_batch = cfg.recv_batch;
  ropt.send_batch = cfg.send_batch;
  ropt.corrupt_tx_per_million = plan.corrupt_per_million;
  ropt.corrupt_seed = plan.seed;
  plan.corrupt_per_million = 0;  // corruption handled at the frame layer
  auto rt = std::make_unique<runtime::RealRuntime>(ropt);
  runtime::RealRuntime* control = rt.get();
  for (ProcessId p = 0; p < total; ++p) {
    if (p == cfg.id) continue;
    const std::string& ep = cfg.peers[p];
    const std::size_t colon = ep.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "peer %u is not ip:port: %s\n", p, ep.c_str());
      return 2;
    }
    control->add_peer(
        p, ep.substr(0, colon),
        static_cast<std::uint16_t>(
            std::strtoul(ep.c_str() + colon + 1, nullptr, 10)));
  }

  sim::World world(cfg.seed, std::move(rt));
  SgxUsigDirectory usigs(world.keys());
  world.provision(total);
  if (plan.any_faults()) world.install_fault_plan(plan);
  // Materialize replica enclaves in id order so every process derives the
  // same key registry (see DESIGN.md §13).
  for (ProcessId p = 0; p < cfg.replicas; ++p) usigs.enclave_for(p);

  MinBftReplica::Options opt;
  opt.f = f;
  for (ProcessId p = 0; p < cfg.replicas; ++p) opt.replicas.push_back(p);
  if (cfg.vc_timeout_ticks != 0)
    opt.view_change_timeout = cfg.vc_timeout_ticks;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (cfg.id < cfg.replicas) {
    bool recovering = false;
    if (!cfg.durable_dir.empty()) {
      // A non-empty image on disk means this OS process is a restarted
      // incarnation: boot through on_recover (reload image, announce
      // RECOVER, state-transfer past it) instead of on_start.
      auto store =
          std::make_unique<runtime::FileDurableStore>(cfg.durable_dir);
      runtime::FileDurableStore* durable = store.get();
      recovering = durable->size() > 0;
      trusted::UsigEnclave& enclave = usigs.enclave_for(cfg.id);
      if (!cfg.volatile_usig) {
        // Counter-then-send ordering: reload the sealed counter from the
        // last incarnation, then write every advance through before the
        // UI can leave the enclave. With --volatile-usig neither happens,
        // so a restart rewinds the counter — the forkable configuration.
        if (const Bytes* sealed = durable->get("usig/sealed"))
          enclave.load_state(*sealed);
        enclave.set_nvram([durable](const Bytes& sealed) {
          durable->put("usig/sealed", sealed);
        });
      }
      world.install_durable(cfg.id, std::move(store));
      if (recovering) world.boot_recovering(cfg.id);
    }
    auto& replica = world.spawn_at<MinBftReplica>(
        cfg.id, opt, usigs, std::make_unique<KvStateMachine>());
    world.start();
    std::printf("replica %u: listening on %s (port %u), n=%zu f=%zu%s\n",
                cfg.id, cfg.listen.c_str(), control->bound_port(),
                cfg.replicas, f,
                recovering ? " (recovering from durable image)" : "");
    std::fflush(stdout);
    // A replica whose receiver thread died is deaf: its loop would keep
    // running (and answering nothing) forever. Exit 4 instead so cluster
    // harnesses see a failed member, not a mysteriously silent one.
    world.run_until(
        [control] {
          return g_stop != 0 || control->stats().receiver_dead;
        },
        SIZE_MAX);
    const auto us = control->udp_stats();
    if (us.receiver_dead) {
      std::fprintf(stderr,
                   "replica %u: UDP receiver died (see warning above); "
                   "refusing to serve deaf\n",
                   cfg.id);
      return 4;
    }
    std::printf("replica %u: view=%llu executed=%llu digest=%s "
                "recoveries=%llu malformed=%llu corrupt_tx=%llu chains=%s\n",
                cfg.id, static_cast<unsigned long long>(replica.view()),
                static_cast<unsigned long long>(replica.executed_count()),
                to_hex(ByteSpan(replica.state_digest().data(), 8)).c_str(),
                static_cast<unsigned long long>(replica.recoveries()),
                static_cast<unsigned long long>(us.frames_malformed),
                static_cast<unsigned long long>(us.frames_corrupt_tx),
                chain_samples(replica.execution_log(),
                              cfg.chain_interval != 0
                                  ? cfg.chain_interval
                                  : opt.checkpoint_interval).c_str());
    return 0;
  }

  SmrClient::Options copt;
  copt.replicas = opt.replicas;
  copt.f = f;
  copt.max_attempts = cfg.max_attempts;
  // Deterministic jitter de-synchronizes resends across a client fleet;
  // harmless for a single client, vital under chaos (all clients backing
  // off in lockstep re-collide forever).
  copt.resend_jitter = 64;
  copt.think_ticks = cfg.think_ticks;
  auto& client = world.spawn_at<SmrClient>(cfg.id, copt);
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    const std::string key = "k" + std::to_string(i % 3);
    if (i % 3 == 2)
      client.submit(KvStateMachine::get_op(key));
    else
      client.submit(KvStateMachine::put_op(key, "v" + std::to_string(i)));
  }
  world.start();
  std::printf("client %u: %llu requests against %zu replicas\n", cfg.id,
              static_cast<unsigned long long>(cfg.requests), cfg.replicas);
  std::fflush(stdout);

  // Give-up timer in Clock ticks, so the predicate needs no wall clock.
  const Time deadline_ticks = cfg.timeout_s * 1'000'000 / cfg.tick_us;
  world.run_until(
      [&] {
        return g_stop != 0 ||
               client.completed() + client.gave_up() >= cfg.requests ||
               world.now() > deadline_ticks ||
               control->stats().receiver_dead;
      },
      SIZE_MAX);

  const auto us = control->udp_stats();
  if (us.receiver_dead && client.completed() < cfg.requests) {
    std::fprintf(stderr, "client %u: UDP receiver died; aborting\n", cfg.id);
    return 4;
  }
  std::printf("client %u: completed=%llu gave_up=%llu frames_sent=%llu "
              "frames_received=%llu malformed=%llu\n",
              cfg.id, static_cast<unsigned long long>(client.completed()),
              static_cast<unsigned long long>(client.gave_up()),
              static_cast<unsigned long long>(us.frames_sent),
              static_cast<unsigned long long>(us.frames_received),
              static_cast<unsigned long long>(us.frames_malformed));
  // Distinct exit codes so harnesses can tell "cluster never answered and
  // the client gave up cleanly" (3) from "ran out of wall clock with work
  // still in flight" (1).
  if (client.completed() >= cfg.requests) return 0;
  return client.gave_up() > 0 ? 3 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc <= 1) return run_sim_demo();
  RealConfig cfg;
  if (!parse_args(argc, argv, cfg)) {
    usage(argv[0]);
    return 2;
  }
  return run_real(cfg);
}
