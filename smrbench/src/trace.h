// Span tracing and the arithmetic the benchmark reports with.
//
// The tracer records a span at every decorator boundary (decorators.h):
// name (a Layer), start, end, parent span and the request the work belongs
// to. Every cluster runs on the calling thread, so one open-span stack and
// one buffer serve the whole run. Self time (a span's duration minus the
// part of it its children cover) and per-layer totals are folded online for
// every span, while the span records themselves are kept in memory only up
// to a cap and written out once the run ends.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace smrbench {

// ---- arithmetic --------------------------------------------------------------

/// A closed-open time interval [start, end) in nanoseconds.
struct Interval {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (q in [0, 100]; q = 0 gives the minimum). 0 for
/// an empty sample.
double percentile(std::vector<double> values, double q);

/// `parent`'s duration minus the union of its children's intervals, each
/// clipped to the parent. Children may nest in or overlap one another.
std::uint64_t self_time(Interval parent, std::vector<Interval> children);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// `amount` per commit; 0 when nothing committed.
double per_commit(double amount, std::uint64_t commits);

/// `part` / `whole`; 0 when `whole` is 0.
double share(double part, double whole);

// ---- tracing -----------------------------------------------------------------

/// The decorator boundaries spans are recorded at.
enum class Layer : std::uint8_t {
  Deliver,       // Transport deliver callback: one protocol handler run
  Timer,         // Clock timer callback
  Send,          // Transport::send
  UsigCreate,    // UsigDirectory::create_ui
  UsigVerify,    // UsigDirectory::verify / verify_batch
  StateMachine,  // StateMachine apply/digest/snapshot/restore
  Persist,       // DurableStore::put
  ClientDone,    // the benchmark's done callback (closed-loop resubmit)
  Request,       // SmrClient::submit to its done callback (not nested)
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer layer);

struct LayerTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  /// Spans with no enclosing span: the runtime loop's handler invocations.
  std::uint64_t top_level_ns = 0;
};
using Totals = std::array<LayerTotals, kLayers>;

/// Monotonic nanoseconds since the process started tracing.
std::uint64_t now_ns();

/// Process-wide switch.
void set_tracing(bool on);
bool tracing();

/// The request id later spans belong to (0 = none).
void set_current_request(std::uint64_t request);

/// An RAII span on the open-span stack; a no-op while tracing is off.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool open_ = false;
};

/// Records a span that did not nest on a stack (a request's lifetime).
void record_async(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint64_t request);

/// Per-layer totals of every span recorded so far.
Totals collect_totals();
void reset_totals();

/// Writes `{"stamp": <stamp_json>, "spans": [...]}` with the kept spans;
/// false on an I/O error.
bool write_spans(const std::string& path, const std::string& stamp_json);

}  // namespace smrbench
