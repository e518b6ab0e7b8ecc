#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto n = v.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double sliced_median(const std::vector<std::pair<std::int64_t, double>>& samples,
                     std::int64_t start, std::int64_t length,
                     std::size_t max_slices, std::size_t min_per_slice) {
  if (samples.empty() || length <= 0) return 0;
  std::size_t n = samples.size() / std::max<std::size_t>(min_per_slice, 1);
  n = std::clamp<std::size_t>(n, 1, std::max<std::size_t>(max_slices, 1));
  std::vector<std::vector<double>> slices(n);
  for (const auto& [t, v] : samples) {
    if (t < start || t >= start + length) continue;
    const auto k = static_cast<std::size_t>(
        static_cast<__int128>(t - start) * static_cast<__int128>(n) / length);
    slices[k].push_back(v);
  }
  std::vector<double> medians;
  for (auto& sl : slices) {
    if (!sl.empty()) medians.push_back(percentile(std::move(sl), 0.5));
  }
  return percentile(std::move(medians), 0.5);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[it->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

std::map<std::string, SelfTime> self_time_by_name(
    const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, std::vector<double>> by;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by[spans[i].name].push_back(static_cast<double>(self[i]));
  }
  std::map<std::string, SelfTime> out;
  for (auto& [name, v] : by) {
    SelfTime st;
    st.count = v.size();
    for (const double d : v) st.total_ns += d;
    st.p50_ns = percentile(std::move(v), 0.5);
    out[name] = st;
  }
  return out;
}

}  // namespace perfbench
