#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace smrbench {

// ---- arithmetic --------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // q * n first: (q / 100) * n rounds 99% of 100 samples to 99.000...01.
  const double rank = std::ceil(q * n / 100.0);
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

std::uint64_t self_time(Interval parent, std::vector<Interval> children) {
  if (parent.end <= parent.start) return 0;
  for (Interval& c : children) {
    c.start = std::clamp(c.start, parent.start, parent.end);
    c.end = std::clamp(c.end, parent.start, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  std::uint64_t covered = 0;
  std::uint64_t reach = parent.start;  // end of the union so far
  for (const Interval& c : children) {
    if (c.end <= reach) continue;
    covered += c.end - std::max(c.start, reach);
    reach = c.end;
  }
  return (parent.end - parent.start) - covered;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double per_commit(double amount, std::uint64_t commits) {
  return commits == 0 ? 0.0 : amount / static_cast<double>(commits);
}

double share(double part, double whole) {
  return whole == 0 ? 0.0 : part / whole;
}

// ---- tracing -----------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Deliver: return "runtime.deliver";
    case Layer::Timer: return "runtime.timer";
    case Layer::Send: return "runtime.send";
    case Layer::UsigCreate: return "trusted.usig_create";
    case Layer::UsigVerify: return "trusted.usig_verify";
    case Layer::StateMachine: return "agreement.state_machine";
    case Layer::Persist: return "sim.durable_put";
    case Layer::ClientDone: return "bench.client_done";
    case Layer::Request: return "client.request";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

/// Span records kept in memory; later spans still feed the totals.
constexpr std::size_t kKeepCap = 100'000;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = none
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t request = 0;
  Layer layer = Layer::Deliver;
};

struct Frame {
  Layer layer = Layer::Deliver;
  std::uint64_t id = 0;
  std::uint64_t start = 0;
  std::size_t kept = SIZE_MAX;  // index into Tracer::kept, if kept
  std::vector<Interval> children;
};

struct Tracer {
  bool on = false;
  std::uint64_t next_id = 1;
  std::vector<Frame> stack;  // frames [0, depth) are open; reused
  std::size_t depth = 0;
  std::uint64_t request = 0;
  std::vector<SpanRecord> kept;
  Totals totals{};
};

Tracer g;

std::size_t keep(const SpanRecord& rec) {
  if (g.kept.size() >= kKeepCap) return SIZE_MAX;
  g.kept.push_back(rec);
  return g.kept.size() - 1;
}

}  // namespace

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void set_tracing(bool on) { g.on = on; }
bool tracing() { return g.on; }

void set_current_request(std::uint64_t request) {
  if (tracing()) g.request = request;
}

Span::Span(Layer layer) {
  if (!tracing()) return;
  open_ = true;
  if (g.depth == g.stack.size()) g.stack.emplace_back();
  Frame& f = g.stack[g.depth++];
  f.layer = layer;
  f.id = g.next_id++;
  f.children.clear();
  SpanRecord rec;
  rec.id = f.id;
  rec.parent = g.depth > 1 ? g.stack[g.depth - 2].id : 0;
  rec.request = g.request;
  rec.layer = layer;
  f.start = now_ns();
  rec.start = f.start;
  f.kept = keep(rec);
}

Span::~Span() {
  if (!open_) return;
  const std::uint64_t end = now_ns();
  Frame& f = g.stack[--g.depth];
  LayerTotals& t = g.totals[static_cast<std::size_t>(f.layer)];
  ++t.count;
  t.total_ns += end - f.start;
  t.self_ns += self_time({f.start, end}, f.children);
  if (g.depth == 0)
    t.top_level_ns += end - f.start;
  else
    g.stack[g.depth - 1].children.push_back({f.start, end});
  if (f.kept != SIZE_MAX) g.kept[f.kept].end = end;
}

void record_async(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint64_t request) {
  if (!tracing()) return;
  LayerTotals& t = g.totals[static_cast<std::size_t>(layer)];
  ++t.count;
  t.total_ns += end_ns - start_ns;
  SpanRecord rec;
  rec.id = g.next_id++;
  rec.start = start_ns;
  rec.end = end_ns;
  rec.request = request;
  rec.layer = layer;
  keep(rec);
}

Totals collect_totals() { return g.totals; }

void reset_totals() { g.totals = Totals{}; }

bool write_spans(const std::string& path, const std::string& stamp_json) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"stamp\": %s,\n\"spans\": [\n", stamp_json.c_str());
  bool first = true;
  for (const SpanRecord& r : g.kept) {
    std::fprintf(out,
                 "%s{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"request\":%llu}",
                 first ? "" : ",\n", static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent), layer_name(r.layer),
                 static_cast<unsigned long long>(r.start),
                 static_cast<unsigned long long>(r.end),
                 static_cast<unsigned long long>(r.request));
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace smrbench
