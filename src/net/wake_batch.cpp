#include "net/wake_batch.hpp"

#include <algorithm>

namespace ccpr::net {

namespace {

struct Pending {
  std::size_t depth = 0;  ///< open scopes on this thread
  /// Noted wakes, one per target. A batch touches a handful of targets
  /// (one per peer link, one per reactor loop), so a linear scan is enough.
  std::vector<std::pair<WakeBatch::WakeFn, void*>> wakes;
};

thread_local Pending t_pending;

}  // namespace

WakeBatch::WakeBatch() { ++t_pending.depth; }

WakeBatch::~WakeBatch() {
  if (--t_pending.depth != 0) return;
  // depth is 0 again, so a wake issued from inside fn fires at once and
  // cannot grow the list under this loop.
  for (const auto& [fn, target] : t_pending.wakes) fn(target);
  t_pending.wakes.clear();
}

void WakeBatch::wake(WakeFn fn, void* target) {
  if (t_pending.depth == 0) {
    fn(target);
    return;
  }
  const auto entry = std::make_pair(fn, target);
  if (std::find(t_pending.wakes.begin(), t_pending.wakes.end(), entry) ==
      t_pending.wakes.end()) {
    t_pending.wakes.push_back(entry);
  }
}

}  // namespace ccpr::net
