// Span records of the traced run and the arithmetic over them: exact
// percentiles and per-layer self time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, q in [0, 1]: the smallest sample with at least
/// q of all samples at or below it. 0 for an empty set.
double percentile(std::vector<double> v, double q);

/// Median of per-slice medians over [start, start + length): the window is
/// cut into equal slices, as many as leave `min_per_slice` samples in each
/// on average but at most `max_slices`, and empty slices are skipped. A
/// stall that spoils a few slices moves this far less than the pooled
/// median. `samples` are (time, value) pairs.
double sliced_median(const std::vector<std::pair<std::int64_t, double>>& samples,
                     std::int64_t start, std::int64_t length,
                     std::size_t max_slices, std::size_t min_per_slice);

/// One timed interval at a layer boundary. Spans of one request share its
/// id as `trace`; `parent` is the id of the span that caused this one (0 =
/// root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::string name;  ///< layer.stage, e.g. "loadgen.queue"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// A span's self time: its duration minus the part of it its children
/// cover (children clipped to the span, overlaps counted once). Indexed
/// like `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per span name: count, total self time and median self time (ns).
struct SelfTime {
  std::uint64_t count = 0;
  double total_ns = 0;
  double p50_ns = 0;
};
std::map<std::string, SelfTime> self_time_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
