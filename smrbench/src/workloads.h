// The benchmark's workloads: how each builds and runs one cluster, and
// what one cluster run reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace smrbench {

enum class Workload {
  SimMinBftBatch,   // "sim-minbft-batch"
  SimPbftFailover,  // "sim-pbft-failover"
};

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Counts read at the layer boundaries of one or more clusters. Sums,
/// except peak_pending (a maximum).
struct LayerCounts {
  std::uint64_t commits = 0;
  std::uint64_t clusters = 0;
  // runtime (RuntimeStats, TracedRuntime)
  std::uint64_t run_wall_ns = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t client_request_sends = 0;
  // sim (SimulatorStats)
  std::uint64_t sim_executed = 0;
  std::uint64_t sim_scheduled = 0;
  std::uint64_t ring_fast_path = 0;
  std::uint64_t peak_pending = 0;
  // wire (StatsHub), crypto (VerifyStats), trusted (TracedUsig)
  std::uint64_t wire_dropped = 0;
  std::uint64_t verifies = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t macs = 0;
  std::uint64_t usig_creates = 0;
  std::uint64_t usig_verifies = 0;
  // agreement (CountingStore, transcripts, replicas)
  std::uint64_t persist_puts = 0;
  std::uint64_t persist_bytes = 0;
  std::uint64_t slots = 0;  // ordered slots executed by the reference replica
  std::uint64_t view_changes = 0;
  std::uint64_t due_unavailable = 0;
  std::uint64_t replicas = 0;  // replicas per cluster

  void add(const LayerCounts& o);
};

/// The work a cluster did. Deterministic per seed, so a traced run must
/// reproduce the untraced run's value exactly.
struct Work {
  std::uint64_t commits = 0;
  std::uint64_t final_tick = 0;
  std::uint64_t messages = 0;
  std::uint64_t persist_puts = 0;
  std::uint64_t persist_bytes = 0;

  bool operator==(const Work&) const = default;
  std::string describe() const;
};

struct ClusterResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;  // requests whose done callback ran once
  double setup_s = 0;           // build, up to the first request
  double run_s = 0;             // first request to last reply
  double cpu_s = 0;             // process user+sys CPU during the run
  std::vector<double> latency_ticks;  // per completed request
  /// Ticks from the fault (or, with no fault, the cluster start) to the
  /// first reply to a request that fell due at or after it.
  double unavailable_ticks = 0;
  Work work;
  LayerCounts layers;
  std::vector<std::string> errors;  // failed correctness checks
};

/// Builds one cluster of `w` from `seed`, runs its fixed request count to
/// completion, checks its outputs and tears it down. `traced` installs the
/// span decorators.
ClusterResult run_cluster(Workload w, std::uint64_t seed, bool traced);

}  // namespace smrbench
