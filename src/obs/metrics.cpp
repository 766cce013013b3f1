#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace unidir::obs {

void HistogramData::record(std::uint64_t value) {
  if (counts.size() != bounds.size() + 1) counts.assign(bounds.size() + 1, 0);
  std::size_t bucket = bounds.size();  // overflow unless a bound admits it
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (value <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  ++counts[bucket];
  ++count;
  sum += value;
  if (value > max) max = value;
}

std::uint64_t HistogramData::quantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    // Clamp to the observed maximum: a bucket's upper bound can overshoot
    // every sample it holds, and "p50 > max" reads as nonsense.
    if (seen >= rank)
      return i < bounds.size() ? std::min(bounds[i], max) : max;
  }
  return max;
}

void HistogramData::merge(const HistogramData& other) {
  if (other.count == 0) return;
  if (count == 0 && counts.empty()) {
    *this = other;
    return;
  }
  assert(bounds == other.bounds);
  if (counts.size() != bounds.size() + 1) counts.assign(bounds.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size() && i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

std::vector<std::uint64_t> Histogram::default_tick_bounds() {
  std::vector<std::uint64_t> bounds;
  for (std::uint64_t b = 1; b <= 8192; b <<= 1) bounds.push_back(b);
  return bounds;
}

Histogram::Histogram(std::vector<std::uint64_t> bounds) {
  data_.bounds = std::move(bounds);
  data_.counts.assign(data_.bounds.size() + 1, 0);
}

const HistogramData* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  auto it = histograms.find(std::string(name));
  return it == histograms.end() ? nullptr : &it->second;
}

std::uint64_t MetricsSnapshot::counter_or(std::string_view name,
                                          std::uint64_t fallback) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? fallback : it->second;
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << "counter " << name << " " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << "gauge " << name << " " << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    os << "histogram " << name << " count=" << h.count << " sum=" << h.sum
       << " p50=" << h.quantile(0.50) << " p95=" << h.quantile(0.95)
       << " p99=" << h.quantile(0.99) << " max=" << h.max << "\n";
  }
  return os.str();
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_counter(std::string_view name, std::uint64_t value) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, std::int64_t value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram()).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, value] : counters_) snap.counters[name] = value;
  for (const auto& [name, value] : gauges_) snap.gauges[name] = value;
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h.data();
  return snap;
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace unidir::obs
