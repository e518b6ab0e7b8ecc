#include "causal/threaded_cluster.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "server/protocol_engine.hpp"
#include "util/assert.hpp"

namespace ccpr::causal {

namespace {

sim::SimTime wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Engines stop only in ~ThreadedCluster, so every blocking engine call on
/// a live cluster returns its value.
template <class T>
T live(std::optional<T> v) {
  CCPR_ASSERT(v.has_value());
  return std::move(*v);
}

}  // namespace

/// The site's protocol belongs to `engine` and runs only on its apply
/// thread; the site's mailbox thread hands each message over as an apply
/// command.
struct ThreadedCluster::Site final : net::IMessageSink {
  metrics::Metrics metrics;  ///< the protocol's Services sink
  server::ProtocolEngine engine{server::ProtocolEngine::Options{}};

  void deliver(net::Message msg) override {
    engine.apply_message(std::move(msg));
  }
};

ThreadedCluster::ThreadedCluster(Algorithm alg, ReplicaMap rmap)
    : ThreadedCluster(alg, std::move(rmap), Options{}) {}

ThreadedCluster::ThreadedCluster(Algorithm alg, ReplicaMap rmap, Options opts)
    : rmap_(std::move(rmap)) {
  const std::uint32_t n = rmap_.sites();
  transport_ = std::make_unique<net::ThreadTransport>(
      n, transport_metrics_,
      net::ThreadTransport::Options{.max_delay_us = opts.max_delay_us,
                                    .delay_seed = opts.delay_seed});
  sites_.reserve(n);
  for (SiteId s = 0; s < n; ++s) {
    Site& site = *sites_.emplace_back(std::make_unique<Site>());
    Services svc;
    svc.send = [this](net::Message m) {
      transport_->send(std::move(m));
      ++sends_;  // after the send: drain() must not count a message it
                 // cannot yet see in the transport
    };
    svc.now = [] { return wall_now_us(); };
    svc.schedule = [this, s](sim::SimTime delay, std::function<void()> fn) {
      // Timer callbacks mutate protocol state, so they run as timer
      // commands on the site's apply thread.
      timers_.schedule_after(delay, [this, s, fn = std::move(fn)] {
        sites_[s]->engine.post_timer(fn);
      });
    };
    svc.metrics = &site.metrics;
    svc.recorder = opts.record_history ? &recorder_ : nullptr;
    site.engine.adopt_protocol(
        make_protocol(alg, s, rmap_, std::move(svc), opts.protocol),
        &site.metrics);
    transport_->connect(s, &site);
  }
  for (auto& site : sites_) site->engine.start();
  transport_->start();
  timers_.start();
}

ThreadedCluster::~ThreadedCluster() {
  // Timers first, so no callback posts into a stopping engine; engines
  // before the transport, so their last sends still find it running.
  timers_.stop();
  for (auto& site : sites_) site->engine.stop();
  transport_->stop();
}

void ThreadedCluster::write(SiteId s, VarId x, std::string data) {
  CCPR_EXPECTS(s < sites_.size());
  (void)live(sites_[s]->engine.write(x, std::move(data),
                                     rmap_.replicated_at(x, s)));
}

Value ThreadedCluster::read(SiteId s, VarId x) {
  CCPR_EXPECTS(s < sites_.size());
  // A remote read returns once the fetch response has been applied.
  return live(sites_[s]->engine.read(x));
}

std::vector<Value> ThreadedCluster::read_many(
    SiteId s, const std::vector<VarId>& vars) {
  CCPR_EXPECTS(s < sites_.size());
  for (const VarId x : vars) {
    // A remote fetch would finish in a later apply slot and lose
    // atomicity; snapshot reads are a local-replica feature.
    CCPR_EXPECTS(rmap_.replicated_at(x, s));
  }
  return live(sites_[s]->engine.snapshot(vars));
}

void ThreadedCluster::drain() {
  // status() is a barrier: it returns after every command queued before it
  // has run. Once the transport is empty, one barrier per engine applies
  // everything it handed over; repeat until a round sends nothing new.
  for (;;) {
    const std::uint64_t sent = sends_;
    transport_->drain();
    for (auto& site : sites_) (void)live(site->engine.status());
    if (sends_ == sent) return;
  }
}

void ThreadedCluster::await_coverage(SiteId from, SiteId to) {
  CCPR_EXPECTS(from < sites_.size() && to < sites_.size());
  auto token = live(sites_[from]->engine.coverage_token(to));
  // Parked on `to`'s engine and re-checked after each batch that applies
  // something there.
  CCPR_ASSERT(live(sites_[to]->engine.wait_covered(std::move(token))));
}

std::size_t ThreadedCluster::pending_updates() const {
  std::size_t total = 0;
  for (const auto& site : sites_) {
    total += live(site->engine.status()).pending_updates;
  }
  return total;
}

metrics::Metrics ThreadedCluster::metrics() const {
  metrics::Metrics merged = transport_metrics_;
  for (const auto& site : sites_) {
    merged.merge(live(site->engine.protocol_metrics()));
  }
  return merged;
}

Value ThreadedCluster::peek(SiteId s, VarId x) const {
  CCPR_EXPECTS(s < sites_.size());
  return live(sites_[s]->engine.peek(x));
}

}  // namespace ccpr::causal
