// The execution substrate behind every protocol in this library.
//
// Protocol code (MinBFT, PBFT, SmrClient, the broadcast stack) is written
// against sim::Process / sim::World, which in turn speak only the three
// interfaces in this header:
//
//   Clock     — now / arm-timer / cancel, in abstract ticks;
//   Transport — point-to-point message passing between ProcessIds, with a
//               deliver callback on the receiving side;
//   Runtime   — owns the event loop that turns armed timers and in-flight
//               messages into handler invocations, and accounts for the
//               work it did (RuntimeStats).
//
// Two backends implement them:
//
//   SimRuntime  (sim_runtime.h)  — the deterministic discrete-event
//       simulator: virtual time, adversary-scheduled delivery, byte-stable
//       fingerprints, record/replay. Every existing test and golden runs
//       here, unchanged.
//   RealRuntime (real_runtime.h) — wall-clock time on an OS thread, a
//       monotonic-clock timer heap, and a UDP socket transport, so the same
//       replica binary serves actual network traffic.
//
// What may depend on what (see DESIGN.md §13): protocol logic may only use
// Clock ticks and Transport sends — never virtual-time internals, never
// sockets. Fingerprints, transcripts and the explorer exist only under
// SimRuntime; RealRuntime trades them for honest wall-clock throughput.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/payload.h"
#include "common/types.h"
#include "obs/rate.h"

namespace unidir::runtime {

/// Handle for a timer armed through Clock::arm. 0 is never a live timer.
using TimerId = std::uint64_t;
inline constexpr TimerId kNoTimer = 0;

/// "Not an execution shard": what Runtime::calling_shard returns on the
/// single-loop backends, from any thread.
inline constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

/// Work accounting shared by both backends. Wall-clock rate arithmetic
/// lives HERE, not in SimulatorStats: the simulator's own counters must
/// stay wall-clock-free so metric snapshots are deterministic, while a
/// real-time backend can report honest events/sec from the same struct.
struct RuntimeStats {
  std::uint64_t scheduled = 0;    // timers armed + messages queued
  std::uint64_t executed = 0;     // handler invocations (timers + deliveries)
  std::uint64_t run_wall_ns = 0;  // wall time spent inside run loops

  // Transport health, surfaced here (not only in backend-specific structs)
  // so generic harnesses can poll one struct for "is this process still a
  // functioning cluster member". Always 0/false on the sim backend, whose
  // network cannot fail this way.
  std::uint64_t frames_send_failed = 0;  // sendto/sendmmsg kernel rejections
  std::uint64_t frames_oversized = 0;    // frames over the datagram max
  bool receiver_dead = false;  // receive loop exited on an unexpected errno

  /// Executed events per wall second across all run calls; 0 when no wall
  /// time was recorded (fresh stats, or a clock too coarse to tick).
  double events_per_sec() const {
    return obs::rate_per_sec(executed, run_wall_ns);
  }
};

/// Time source and timer service, in abstract ticks. Under SimRuntime a
/// tick is one unit of virtual time; under RealRuntime it is a configured
/// wall duration (RealRuntimeOptions::tick_ns, default 1ms). Protocol
/// timeouts are therefore written once, in ticks, and mean "soon, with
/// room for a round trip" on either backend.
class Clock {
 public:
  virtual ~Clock() = default;

  virtual Time now() const = 0;

  /// Schedules `fn` once, `delay` ticks from now. Returns a handle usable
  /// with cancel() until the timer fires.
  virtual TimerId arm(Time delay, std::function<void()> fn) = 0;

  /// Cancels a pending timer; cancelling a fired or unknown id is a no-op.
  virtual void cancel(TimerId id) = 0;
};

/// Point-to-point message passing between ProcessIds. Addressing is by
/// dense global id on both backends; what differs is who answers an id —
/// the in-memory World (SimRuntime and RealRuntime's loopback path) or a
/// UDP peer table (RealRuntime's socket path).
class Transport {
 public:
  using DeliverFn = std::function<void(ProcessId from, ProcessId to,
                                       Channel channel,
                                       const Payload& payload)>;

  virtual ~Transport() = default;

  virtual void send(ProcessId from, ProcessId to, Channel channel,
                    Payload payload) = 0;

  /// Invoked (as an event on the runtime's loop) for each delivered
  /// message. Must be set before the loop runs.
  virtual void set_deliver(DeliverFn fn) = 0;

  /// Tells the transport which ids live in this OS process; deliveries to
  /// them bypass any socket. SimRuntime's network delivers everything
  /// in-memory already, so its transport ignores this.
  virtual void set_local(std::function<bool(ProcessId)> is_local) {
    (void)is_local;
  }

  /// Ids addressable through this transport beyond the local ones
  /// (remote peer table size; 0 for the fully in-memory backends).
  virtual std::size_t peer_count() const { return 0; }

  /// Sends one payload to an explicit recipient list, sharing the COW
  /// buffer across links.
  void multicast(ProcessId from, const std::vector<ProcessId>& to,
                 Channel channel, const Payload& payload) {
    for (ProcessId p : to) send(from, p, channel, payload);
  }
};

/// Owns the event loop. run/run_until mirror the simulator's contract:
/// events execute one at a time on the calling thread, `pred` is checked
/// after each event, and `max_events` bounds the work. What "quiescence"
/// means differs per backend — see each implementation.
class Runtime {
 public:
  virtual ~Runtime() = default;
  Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  virtual Clock& clock() = 0;
  virtual Transport& transport() = 0;

  /// Runs until quiescence or `max_events`; returns events executed.
  virtual std::size_t run(std::size_t max_events) = 0;

  /// Runs until `pred()` holds (checked after each event), quiescence, or
  /// the cap. Returns true iff the predicate held.
  virtual bool run_until(const std::function<bool()>& pred,
                         std::size_t max_events) = 0;

  virtual RuntimeStats stats() const = 0;

  // -- execution shards ------------------------------------------------------
  // Both backends are one event loop, so these defaults are the whole
  // story: one shard, no calling shard, and arm_for through the plain
  // clock. Decorating runtimes forward them to the backend they wrap.

  /// Number of event-loop shards this backend executes handlers on.
  virtual std::size_t execution_shards() const { return 1; }

  /// The shard index whose loop the calling thread is currently running,
  /// or kNoShard (always kNoShard on single-loop backends, where handlers
  /// run on the caller's own thread).
  virtual std::size_t calling_shard() const { return kNoShard; }

  /// Arms a timer whose callback touches `owner`'s state; on a single-loop
  /// backend that is exactly clock().arm.
  virtual TimerId arm_for(ProcessId owner, Time delay,
                          std::function<void()> fn) {
    (void)owner;
    return clock().arm(delay, std::move(fn));
  }

  /// Per-shard work accounting; index < execution_shards(). The default
  /// single-loop implementation returns the aggregate for shard 0.
  virtual RuntimeStats shard_stats(std::size_t shard) const {
    (void)shard;
    return stats();
  }

  /// True when ticks are wall-clock (RealRuntime): fingerprints and other
  /// determinism claims do not apply, and wall-time figures may be
  /// published into metric snapshots.
  virtual bool real_time() const = 0;
};

}  // namespace unidir::runtime
