// smrbench: runs one named SMR workload for a given time and prints its
// metrics as one JSON object on the last line of standard output.
//
//   smrbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//
// --trace 0 builds fresh clusters from the seed until S seconds have
// passed and reports the end-to-end metrics. --trace 1 runs each cluster
// twice, untraced and then traced, reports the per-layer metrics from the
// traced copies and the tracing overhead from the pair, and fails unless
// both copies did exactly the same work. The exit status is 0 only when
// every correctness check passed.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "trace.h"
#include "workloads.h"

using namespace smrbench;

namespace {

struct Args {
  Workload workload = Workload::SimMinBftBatch;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "smrbench: %s\nusage: smrbench --workload "
               "sim-minbft-batch|sim-pbft-failover --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      auto w = parse_workload(v);
      if (!w) usage(("unknown workload " + v).c_str());
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds)
    usage("--workload, --seed and a positive --seconds are required");
  return a;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v` (all its digits).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string stamp_json(const Args& a) {
  return "{\"workload\": " + json_string(workload_name(a.workload)) +
         ", \"seed\": " + std::to_string(a.seed) +
         ", \"seconds\": " + json_number(a.seconds) +
         ", \"trace\": " + (a.trace ? "true" : "false") +
         ", \"cpu_model\": " + json_string(cpu_model()) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"sha_ni\": " +
         (unidir::crypto::Sha256::hardware_accelerated() ? "true" : "false") +
         ", \"build_type\": " + json_string(SMRBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(__VERSION__) + "}";
}

/// Cluster i's seed: a splitmix64 step, so neighbouring run seeds do not
/// share clusters.
std::uint64_t cluster_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) & 0xFFFFFFFFFFFFULL;
}

/// What the run saw, summed over a set of clusters.
struct Tally {
  std::uint64_t clusters = 0, attempted = 0, completed = 0;
  double run_s = 0, cpu_s = 0;
  // One entry per cluster.
  std::vector<double> setup_s, p50_ticks, p99_ticks, unavailable_ticks;
  LayerCounts layers;

  void add(const ClusterResult& r) {
    ++clusters;
    attempted += r.attempted;
    completed += r.completed;
    run_s += r.run_s;
    cpu_s += r.cpu_s;
    setup_s.push_back(r.setup_s);
    p50_ticks.push_back(percentile(r.latency_ticks, 50));
    p99_ticks.push_back(percentile(r.latency_ticks, 99));
    unavailable_ticks.push_back(r.unavailable_ticks);
    layers.add(r.layers);
  }
  double commit_rps() const {
    return run_s == 0 ? 0 : static_cast<double>(completed) / run_s;
  }
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::vector<Metric> end_to_end(const Tally& t) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"setup_s", percentile(t.setup_s, 50), "s"},
      {"commit_rps", t.commit_rps(), "1/s"},
      {"cpu_us_per_commit", per_commit(t.cpu_s * 1e6, t.completed), "us"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
      // Latency percentiles are taken per cluster (each has >= 1024
      // requests, so p99 has ten samples beyond it). They are exact integer
      // ticks, so they are summarised over the run's clusters by their
      // mean, which moves smoothly where a median would jump a whole tick.
      {"latency_p50_ticks", mean(t.p50_ticks), "ticks"},
      {"latency_p99_ticks", mean(t.p99_ticks), "ticks"},
      {"unavailable_ticks", mean(t.unavailable_ticks), "ticks"},
  };
}

std::vector<Metric> per_layer(const Tally& traced, const Tally& untraced,
                              const Totals& spans) {
  const LayerCounts& c = traced.layers;
  const std::uint64_t n = c.commits;
  auto span = [&](Layer l) -> const LayerTotals& {
    return spans[static_cast<std::size_t>(l)];
  };
  auto us = [](std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; };
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double handler_ns =
      d(span(Layer::Deliver).top_level_ns + span(Layer::Timer).top_level_ns);
  const double clusters = d(c.clusters);
  return {
      {"sim.events_per_commit", per_commit(d(c.sim_executed), n), "count"},
      {"sim.ring_fast_path_share",
       share(d(c.ring_fast_path), d(c.sim_scheduled)), "share"},
      {"sim.peak_pending", d(c.peak_pending), "count"},
      {"runtime.timers_per_commit", per_commit(d(span(Layer::Timer).count), n),
       "count"},
      {"runtime.send_us_per_commit",
       per_commit(us(span(Layer::Send).total_ns), n), "us"},
      {"runtime.loop_idle_share",
       c.run_wall_ns == 0 ? 0 : 1.0 - handler_ns / d(c.run_wall_ns), "share"},
      {"wire.msgs_per_commit", per_commit(d(span(Layer::Send).count), n),
       "count"},
      {"wire.bytes_per_commit", per_commit(d(c.send_bytes), n), "B"},
      {"wire.dropped", d(c.wire_dropped), "count"},
      {"crypto.verifies_per_commit", per_commit(d(c.verifies), n), "count"},
      {"crypto.macs_per_commit", per_commit(d(c.macs), n), "count"},
      {"crypto.memo_hit_share", share(d(c.memo_hits), d(c.verifies)), "share"},
      {"trusted.usig_creates_per_commit", per_commit(d(c.usig_creates), n),
       "count"},
      {"trusted.usig_verifies_per_commit", per_commit(d(c.usig_verifies), n),
       "count"},
      {"trusted.usig_us_per_commit",
       per_commit(us(span(Layer::UsigCreate).total_ns +
                     span(Layer::UsigVerify).total_ns),
                  n),
       "us"},
      {"agreement.handler_self_us_per_commit",
       per_commit(us(span(Layer::Deliver).self_ns), n), "us"},
      {"agreement.timer_self_us_per_commit",
       per_commit(us(span(Layer::Timer).self_ns), n), "us"},
      {"agreement.ops_per_batch", share(d(n), d(c.slots)), "count"},
      {"agreement.state_machine_us_per_commit",
       per_commit(us(span(Layer::StateMachine).total_ns), n), "us"},
      {"agreement.persist_puts_per_commit", per_commit(d(c.persist_puts), n),
       "count"},
      {"agreement.persist_bytes_per_commit", per_commit(d(c.persist_bytes), n),
       "B"},
      {"agreement.view_changes", share(d(c.view_changes), clusters), "count"},
      {"agreement.client_sends_per_request",
       per_commit(share(d(c.client_request_sends), d(c.replicas)), n), "count"},
      {"agreement.due_unavailable", share(d(c.due_unavailable), clusters),
       "count"},
      {"trace.untraced_commit_rps", untraced.commit_rps(), "1/s"},
      {"trace.traced_commit_rps", traced.commit_rps(), "1/s"},
      {"trace.overhead_share",
       1.0 - share(traced.commit_rps(), untraced.commit_rps()), "share"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload w = args.workload;
  const std::string stamp = stamp_json(args);
  std::printf("{\"stamp\": %s}\n", stamp.c_str());
  std::fflush(stdout);

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, completed = 0;
  auto account = [&](const ClusterResult& r, const char* what) {
    attempted += r.attempted;
    completed += r.completed;
    for (const std::string& e : r.errors)
      errors.push_back(std::string(what) + ": " + e);
  };

  // One unmeasured cluster first, so lazy set-up and cold caches stay out
  // of the figures.
  account(run_cluster(w, cluster_seed(args.seed, ~0ULL), false), "warm-up");

  Tally untraced, traced;
  const std::uint64_t t0 = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(args.seconds * 1e9);
  for (std::uint64_t i = 0; now_ns() - t0 < budget_ns; ++i) {
    const std::uint64_t s = cluster_seed(args.seed, i);
    const ClusterResult u = run_cluster(w, s, false);
    account(u, "cluster");
    untraced.add(u);
    if (!args.trace) continue;
    const ClusterResult t = run_cluster(w, s, true);
    account(t, "traced cluster");
    traced.add(t);
    if (!(t.work == u.work))
      errors.push_back("traced run did different work: untraced " +
                       u.work.describe() + ", traced " + t.work.describe());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = per_layer(traced, untraced, collect_totals());
    if (!args.trace_out.empty() && !write_spans(args.trace_out, stamp))
      errors.push_back("could not write " + args.trace_out);
  } else {
    metrics = end_to_end(untraced);
  }

  for (const std::string& e : errors)
    std::fprintf(stderr, "smrbench: FAIL %s\n", e.c_str());
  const bool correct = errors.empty();
  std::string line = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(attempted - completed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += (i ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
