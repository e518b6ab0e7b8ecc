// WakeBatch: batch-scoped deferral of cross-thread wake-ups.
//
// A thread that hands work to another thread wakes it right away: a
// condition-variable notify toward a peer's sender thread, an eventfd write
// toward a reactor loop. A thread that hands off a burst — the protocol
// engine's apply thread running one batch of commands and their callbacks —
// then wakes the consumer once per item, and on a busy (or single) processor
// the two threads ping-pong instead of doing protocol work.
//
// A WakeBatch opened on the producing thread turns each wake into a note;
// closing the scope issues every noted wake once, however many hand-offs it
// covered. The work itself is queued at once, so a consumer that is already
// awake picks it up without waiting for the wake. Without an open scope (the
// timer thread, the admin thread, tests) wakes fire at once. Scopes nest;
// only the outermost one issues the wakes.
//
// Lifetime: a noted wake holds a raw pointer to its target, so a target must
// outlive every scope that may hold it. The site server guarantees this by
// joining the apply threads (the only scope owners) before it destroys the
// transport and the reactor.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ccpr::net {

class WakeBatch {
 public:
  using WakeFn = void (*)(void* target);

  WakeBatch();
  /// Issues the wakes noted inside the scope (outermost scope only).
  ~WakeBatch();

  WakeBatch(const WakeBatch&) = delete;
  WakeBatch& operator=(const WakeBatch&) = delete;

  /// Call fn(target) now, or — inside an open scope on this thread — once
  /// when the scope closes. Repeat calls for the same target coalesce.
  static void wake(WakeFn fn, void* target);
};

}  // namespace ccpr::net
