// ThreadedCluster: the same protocol state machines running on real threads
// over the ThreadTransport. Each site's protocol belongs to one
// server::ProtocolEngine, the site server's single-writer executor: its
// apply thread runs every protocol call (application operations, the
// messages the site's mailbox thread hands over, failover timers), so they
// interleave but never overlap. Application calls are blocking producers on
// that engine (a read parks the calling thread until the RemoteFetch
// response has been applied), matching the paper's synchronous operation
// model.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "causal/factory.hpp"
#include "causal/replica_map.hpp"
#include "checker/recorder.hpp"
#include "metrics/metrics.hpp"
#include "net/thread_transport.hpp"
#include "util/timer_thread.hpp"

namespace ccpr::causal {

class ThreadedCluster {
 public:
  struct Options {
    ProtocolOptions protocol{};
    /// Random extra delivery delay per message (widens interleavings).
    std::uint32_t max_delay_us = 100;
    std::uint64_t delay_seed = 0xdeed;
    bool record_history = true;
  };

  ThreadedCluster(Algorithm alg, ReplicaMap rmap);
  ThreadedCluster(Algorithm alg, ReplicaMap rmap, Options opts);
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  /// Blocking write issued by site s's application process.
  void write(SiteId s, VarId x, std::string data);
  /// Blocking read issued by site s's application process.
  Value read(SiteId s, VarId x);

  /// Atomic multi-read at one site: all variables must be locally
  /// replicated there. The reads run as one command on the site's apply
  /// thread and applied state is causally closed, so the returned values
  /// form a causally consistent cut (no value may depend on a newer version
  /// of another returned variable).
  std::vector<Value> read_many(SiteId s, const std::vector<VarId>& vars);

  /// Wait until no message is queued in the transport and no command is
  /// queued or running in any site's engine. A message counts as in flight
  /// until its site's engine has applied it; the messages that apply sends
  /// are waited for too.
  void drain();

  /// Session migration: block until site `to` has applied everything in
  /// site `from`'s causal past destined to `to`. After this returns, a
  /// client that last operated at `from` keeps all four session guarantees
  /// when it continues at `to`.
  void await_coverage(SiteId from, SiteId to);

  const ReplicaMap& replica_map() const noexcept { return rmap_; }
  const checker::HistoryRecorder& history() const noexcept {
    return recorder_;
  }
  std::size_t pending_updates() const;
  metrics::Metrics metrics() const;
  Value peek(SiteId s, VarId x) const;

 private:
  /// One site's engine and the transport sink feeding it (see the .cpp).
  struct Site;

  ReplicaMap rmap_;
  metrics::Metrics transport_metrics_;
  checker::HistoryRecorder recorder_;
  /// Messages the protocols have handed to the transport (see drain()).
  std::atomic<std::uint64_t> sends_{0};
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<net::ThreadTransport> transport_;
  util::TimerThread timers_;
};

}  // namespace ccpr::causal
