// ShardedEngine: N ProtocolEngine shards behind one site-server facade.
//
// The TCP runtime's counterpart to causal::ShardGroup. Each shard is a full
// single-writer ProtocolEngine — its own apply thread, bounded MPSC queue,
// durability layer (WAL under <data-dir>/shard-<k> for k > 0) and value
// store — running an unmodified single-shard protocol over the cluster-wide
// causal::ShardMap partition of the keyspace. With shards == 1 everything
// here is a strict passthrough and the site behaves byte-identically to the
// pre-sharding server.
//
// Cross-shard causal order (shards > 1) is causal::ShardChannels
// (shard_map.hpp); ShardedEngine drives it across threads:
//
//  * Outbound tokens come from a per-shard cache refreshed by each shard's
//    batch-end hook — published BEFORE that batch's client callbacks fire,
//    so the cache provably covers anything any session has observed
//    (publish-before-fulfill; see protocol_engine.hpp). Reading the cache
//    is a mutex-protected lookup: shard k never blocks on shard j's apply
//    thread. Already-wrapped catch-up resends pass through verbatim.
//  * Inbound, the channels live under adm_mu_. Every envelope is gated when
//    it arrives, whatever is parked ahead of it: each of its dependencies
//    is posted to its shard as a deadline-less covered-waiter. The last
//    verdict marks the envelope open and releases its channel's open heads,
//    in FIFO order, into the target shard's queue. Coverage only grows, so
//    an envelope opened early stays releasable until its turn. Cross-shard
//    waits are acyclic in the happens-before order the senders serialized,
//    so parked envelopes always drain (no timeout needed).
//  * Releases run under adm_mu_, which keeps one channel's releases in
//    order when several apply threads report verdicts at once. They use
//    unbounded enqueues (the releaser may be an apply thread), so the lock
//    order is adm_mu_ -> ProtocolEngine::mu_, never the reverse: no engine
//    callback runs under its mu_, and covered-waiters are posted outside
//    adm_mu_. The delivery thread meets the queue bound there, on those
//    bounded posts.
//
// Client-visible session state: coverage tokens become the framed
// concatenation of every shard's token (causal::combine_shard_tokens), and
// covered-waits split the token and wait on every shard. Multi-key
// snapshots degrade from "one apply slot" to a sequence of per-shard
// consistent cuts issued in shard order — still a causally consistent read
// sequence, no longer a single atomic cut (documented in RUNTIMES.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "causal/shard_map.hpp"
#include "metrics/metrics.hpp"
#include "server/protocol_engine.hpp"

namespace ccpr::server {

class ShardedEngine {
 public:
  /// Per-shard stats row for status/metrics surfaces.
  struct ShardStat {
    ProtocolEngine::QueueStats queue;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t pending_updates = 0;
  };

  ShardedEngine(std::uint32_t shards, causal::SiteId self,
                std::uint32_t n_sites, ProtocolEngine::Options engine_opts);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t shards() const noexcept { return map_.shards(); }
  const causal::ShardMap& shard_map() const noexcept { return map_; }
  /// The shard engines, for per-shard wiring (adopt_protocol,
  /// configure_durability, Services targets). Index < shards().
  ProtocolEngine& shard(std::uint32_t k) { return *engines_[k]; }
  /// The metrics sink shard k's protocol Services must point at.
  metrics::Metrics* shard_metrics(std::uint32_t k) {
    return metrics_[k].get();
  }

  /// Where wrapped outbound traffic goes (the real transport). Must be set
  /// before any shard starts.
  void set_transport_send(std::function<void(net::Message)> send);

  /// Wrap shard k's outbound message with its cached cross-shard tokens
  /// (ShardChannels::wrap; identity when shards == 1). Installed as each
  /// shard Durability's wrap_update hook so stamped updates are wrapped
  /// *before* retention and catch-up resends replay the original-send
  /// tokens verbatim — fresh tokens at resend time could reference writes
  /// parked behind the resent update at the receiver, a cross-shard
  /// deadlock.
  net::Message wrap(std::uint32_t shard, net::Message msg);

  /// Shard k's durability transport_send target: wraps fresh protocol
  /// sends via wrap() and forwards to the transport. Already-wrapped
  /// messages (retained catch-up resends) pass through verbatim.
  /// Passthrough when shards == 1. Runs on shard k's apply thread.
  void wrap_and_send(std::uint32_t shard, net::Message msg);

  /// Refresh the token cache from shard k's protocol. Installed as each
  /// shard's batch-end hook; also called synchronously after recovery,
  /// before the apply threads start, so restored state is published first.
  void publish_tokens(std::uint32_t shard, causal::IProtocol& proto);

  /// Arm every shard's batch-end hook (only meaningful when shards > 1;
  /// no-op otherwise so the single-shard hot path stays hook-free). Call
  /// before start_all().
  void install_hooks();

  void start_all();
  void stop_all();

  /// Inbound peer protocol traffic from the site's transport (everything
  /// except heartbeats, which the server answers before this layer).
  void deliver(net::Message msg);

  // ---- client-facing async API (reactor threads / engine callbacks) ----

  void async_write(causal::VarId x, std::string data, bool local_replica,
                   ProtocolEngine::WriteCb cb);
  void async_read(causal::VarId x, ProtocolEngine::ReadCb cb);
  /// Sequential per-shard consistent cuts, assembled back into `xs` order.
  void async_snapshot(std::vector<causal::VarId> xs,
                      ProtocolEngine::SnapshotCb cb);
  /// Combined (all-shards) session token for `target`.
  void async_token(causal::SiteId target, ProtocolEngine::TokenCb cb);
  /// Split `token` and wait for every shard, same deadline; AND of the
  /// verdicts. A token that does not split for this shard count is garbage:
  /// verdict false, like any undecodable token today.
  void async_covered(std::vector<std::uint8_t> token, std::uint64_t wait_us,
                     ProtocolEngine::CoveredCb cb);

  // ---- blocking aggregation API (admin/status threads, tests) ----

  std::optional<ProtocolEngine::StatusSnapshot> status();
  std::optional<std::vector<ShardStat>> per_shard_stats();
  std::optional<metrics::Metrics> protocol_metrics();
  std::optional<store::EngineStats> store_stats();
  std::optional<Durability::Stats> durability_stats();
  std::optional<Durability::CatchupProgress> catchup_progress();

  std::vector<ProtocolEngine::QueueStats> queue_stats() const;
  /// Envelopes parked on unmet cross-shard tokens right now.
  std::uint64_t parked_envelopes() const;
  /// Inbound envelopes dropped as malformed (see ShardChannels::push).
  std::uint64_t malformed_envelopes() const;

 private:
  using Channel = causal::ShardChannels::Channel;
  using Ticket = causal::ShardChannels::Ticket;
  /// Countdown for one parked envelope's dependency set.
  struct Gate {
    std::atomic<std::uint32_t> remaining{0};
    Ticket ticket;
  };

  /// Hand `c`'s open heads to their shard. Requires adm_mu_.
  void release(Channel c);

  causal::ShardMap map_;
  causal::SiteId self_;
  std::uint32_t n_sites_;
  std::vector<std::unique_ptr<ProtocolEngine>> engines_;
  std::vector<std::unique_ptr<metrics::Metrics>> metrics_;
  std::function<void(net::Message)> transport_send_;

  /// token_cache_[k][dst] = shard k's last published coverage token for
  /// site dst. Guarded by token_mu_; writers are batch-end hooks, readers
  /// are wrap_and_send calls on other shards' apply threads.
  mutable std::mutex token_mu_;
  std::vector<std::vector<std::vector<std::uint8_t>>> token_cache_;

  mutable std::mutex adm_mu_;
  /// Guarded by adm_mu_ (wrap() is not): admission, open marks and the
  /// in-order release of open heads.
  causal::ShardChannels channels_;
};

}  // namespace ccpr::server
