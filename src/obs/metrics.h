// Unified metrics registry: named counters, gauges and fixed-bucket
// virtual-tick histograms, owned by the World and shared by every layer.
//
// Before this existed, telemetry was scattered over four ad-hoc structs
// (SimulatorStats, NetworkStats, ChannelStats, VerifyStats) plus the
// client's raw latency vector; experiments that wanted "commit latency
// p99 under adversary X" had to re-derive it by hand. The registry gives
// every layer one place to publish and every experiment one place to read.
//
// Determinism rules (DESIGN.md §10):
//  * Histogram samples are virtual ticks (or pure counts) — never wall
//    time. Wall-clock figures (events/sec) stay in their stats structs and
//    are NOT published here, so two runs of one seed produce identical
//    snapshots.
//  * All maps are ordered by name; snapshot() and to_text() iterate them
//    in that order, so rendered snapshots are byte-stable.
//
// Quantiles come from fixed bucket boundaries: quantile(q) returns the
// inclusive upper bound of the bucket holding the q-th sample, clamped to
// the observed maximum (which is exact). Coarse, but deterministic, mergeable
// and allocation-light — the uBFT style of percentile accounting adapted
// to virtual time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace unidir::obs {

/// The value state of one histogram: cumulative-free bucket counts plus
/// exact count/sum/max. Plain data so snapshots can copy, compare and
/// merge it.
struct HistogramData {
  /// Inclusive upper bounds, ascending. Samples above the last bound land
  /// in an implicit overflow bucket, so counts.size() == bounds.size() + 1.
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  bool operator==(const HistogramData&) const = default;

  void record(std::uint64_t value);

  /// Upper bound of the bucket containing the ceil(q * count)-th sample
  /// (q in [0, 1]), clamped to `max`; `max` for the overflow bucket, 0
  /// when empty.
  std::uint64_t quantile(double q) const;

  /// Folds `other` in; bucket bounds must match.
  void merge(const HistogramData& other);
};

class Histogram {
 public:
  /// Default bounds suit tick-scale latencies: powers of two, 1..8192.
  static std::vector<std::uint64_t> default_tick_bounds();

  explicit Histogram(std::vector<std::uint64_t> bounds = default_tick_bounds());

  void record(std::uint64_t value) { data_.record(value); }
  void merge(const HistogramData& other) { data_.merge(other); }
  const HistogramData& data() const { return data_; }

 private:
  HistogramData data_;
};

/// Copyable, comparable view of a registry at one instant. RunOutcome
/// carries one per scenario; golden tests compare them across runs.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  bool operator==(const MetricsSnapshot&) const = default;

  const HistogramData* find_histogram(std::string_view name) const;
  std::uint64_t counter_or(std::string_view name, std::uint64_t fallback) const;

  /// Deterministic line-oriented rendering (sorted by name), suitable for
  /// dumping next to a repro trace.
  std::string to_text() const;
};

class MetricsRegistry {
 public:
  /// Bumps (or creates) a counter.
  void add(std::string_view name, std::uint64_t delta = 1);
  /// Publishes an externally maintained total (idempotent, unlike add).
  void set_counter(std::string_view name, std::uint64_t value);
  void set_gauge(std::string_view name, std::int64_t value);

  /// The named histogram, created with default tick bounds on first use.
  /// References stay valid for the registry's lifetime.
  Histogram& histogram(std::string_view name);

  std::uint64_t counter_value(std::string_view name) const;

  MetricsSnapshot snapshot() const;
  void clear();

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace unidir::obs
