#include "server/sharded_engine.hpp"

#include <string>
#include <utility>

#include "util/assert.hpp"

namespace ccpr::server {

ShardedEngine::ShardedEngine(std::uint32_t shards, causal::SiteId self,
                             std::uint32_t n_sites,
                             ProtocolEngine::Options engine_opts)
    : map_(shards), self_(self), n_sites_(n_sites), channels_(shards) {
  engines_.reserve(map_.shards());
  metrics_.reserve(map_.shards());
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engine_opts.thread_name = "apply-" + std::to_string(k);
    engines_.push_back(std::make_unique<ProtocolEngine>(engine_opts));
    metrics_.push_back(std::make_unique<metrics::Metrics>());
  }
  token_cache_.assign(map_.shards(),
                      std::vector<std::vector<std::uint8_t>>(n_sites_));
}

ShardedEngine::~ShardedEngine() { stop_all(); }

void ShardedEngine::set_transport_send(
    std::function<void(net::Message)> send) {
  transport_send_ = std::move(send);
}

net::Message ShardedEngine::wrap(std::uint32_t shard, net::Message msg) {
  const causal::SiteId dst = msg.dst;
  return channels_.wrap(shard, std::move(msg), [this, dst](std::uint32_t j) {
    // Empty = never published, which only happens on a fresh boot before
    // shard j's first batch — its token would be trivially covered, so
    // carrying nothing is equivalent (recovery publishes before start).
    std::lock_guard lk(token_mu_);
    return token_cache_[j][dst];
  });
}

void ShardedEngine::wrap_and_send(std::uint32_t shard, net::Message msg) {
  CCPR_EXPECTS(transport_send_ != nullptr);
  // Already an envelope: a catch-up re-send of a retained wrapped update
  // (Durability wraps stamped updates before retention, so re-sends keep
  // their original-send tokens). Forward verbatim — re-wrapping would nest
  // envelopes, and fresh tokens could deadlock the receiver.
  if (msg.kind == net::MsgKind::kShardEnvelope) {
    transport_send_(std::move(msg));
    return;
  }
  transport_send_(wrap(shard, std::move(msg)));
}

void ShardedEngine::publish_tokens(std::uint32_t shard,
                                   causal::IProtocol& proto) {
  if (map_.shards() == 1) return;
  std::lock_guard lk(token_mu_);
  for (std::uint32_t dst = 0; dst < n_sites_; ++dst) {
    if (dst == self_) continue;
    token_cache_[shard][dst] = proto.coverage_token(dst);
  }
}

void ShardedEngine::install_hooks() {
  if (map_.shards() == 1) return;
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engines_[k]->set_batch_end_hook(
        [this, k](causal::IProtocol& p) { publish_tokens(k, p); });
  }
}

void ShardedEngine::start_all() {
  for (auto& e : engines_) e->start();
}

void ShardedEngine::stop_all() {
  for (auto& e : engines_) e->stop();
}

void ShardedEngine::deliver(net::Message msg) {
  if (map_.shards() == 1) {
    engines_[0]->apply_message(std::move(msg));
    return;
  }
  std::optional<Ticket> t;
  std::vector<causal::ShardToken> deps;
  {
    std::lock_guard lk(adm_mu_);
    t = channels_.push(msg);
    if (!t) return;
    deps = channels_.deps(*t);
    if (deps.empty()) {
      // No dependency (fetch/catch-up requests, or trivially covered): open
      // now; it is released as soon as the envelopes ahead of it are.
      channels_.open(*t);
      release(t->chan);
      return;
    }
  }
  // Gate this envelope now, whatever is parked ahead of it: coverage only
  // grows, so a dependency met early stays met until its turn comes.
  auto gate = std::make_shared<Gate>();
  gate->remaining.store(static_cast<std::uint32_t>(deps.size()),
                        std::memory_order_relaxed);
  gate->ticket = *t;
  for (causal::ShardToken& tok : deps) {
    // Verdict value is irrelevant: covered -> proceed; nullopt (engine
    // stopping) -> proceed too, the release enqueue is then a no-op drop,
    // exactly what an unsharded stopping site does with late deliveries.
    engines_[tok.shard]->post_covered_callback(
        std::move(tok.token),
        [this, gate](std::optional<bool>) {
          if (gate->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard lk(adm_mu_);
            channels_.open(gate->ticket);
            release(gate->ticket.chan);
          }
        },
        /*bounded=*/true);
  }
}

void ShardedEngine::release(Channel c) {
  // Under adm_mu_, so concurrent releasers pop one channel in FIFO order.
  // The caller may be an apply thread (the last verdict): enqueues must not
  // block, and adm_mu_ -> ProtocolEngine::mu_ is the only lock order.
  while (std::optional<causal::ShardEnvelope> env = channels_.pop_open(c)) {
    engines_[env->shard]->apply_message(std::move(env->inner),
                                        /*bounded=*/false);
  }
}

std::uint64_t ShardedEngine::parked_envelopes() const {
  std::lock_guard lk(adm_mu_);
  return channels_.parked();
}

std::uint64_t ShardedEngine::malformed_envelopes() const {
  std::lock_guard lk(adm_mu_);
  return channels_.malformed();
}

// ---- client-facing async API ----

void ShardedEngine::async_write(causal::VarId x, std::string data,
                                bool local_replica,
                                ProtocolEngine::WriteCb cb) {
  engines_[map_.shard_of(x)]->async_write(x, std::move(data), local_replica,
                                          std::move(cb));
}

void ShardedEngine::async_read(causal::VarId x, ProtocolEngine::ReadCb cb) {
  engines_[map_.shard_of(x)]->async_read(x, std::move(cb));
}

namespace {

struct SnapState {
  std::vector<causal::Value> out;
  // groups[g] = (shard, indices into the request in shard-local order)
  std::vector<std::pair<std::uint32_t, std::vector<std::size_t>>> groups;
  std::vector<std::vector<causal::VarId>> group_vars;
  std::size_t gi = 0;
  ProtocolEngine::SnapshotCb cb;
};

}  // namespace

void ShardedEngine::async_snapshot(std::vector<causal::VarId> xs,
                                   ProtocolEngine::SnapshotCb cb) {
  if (map_.shards() == 1) {
    engines_[0]->async_snapshot(std::move(xs), std::move(cb));
    return;
  }
  auto st = std::make_shared<SnapState>();
  st->out.resize(xs.size());
  st->cb = std::move(cb);
  std::vector<std::int64_t> group_of(map_.shards(), -1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::uint32_t k = map_.shard_of(xs[i]);
    if (group_of[k] < 0) {
      group_of[k] = static_cast<std::int64_t>(st->groups.size());
      st->groups.emplace_back(k, std::vector<std::size_t>{});
      st->group_vars.emplace_back();
    }
    st->groups[static_cast<std::size_t>(group_of[k])].second.push_back(i);
    st->group_vars[static_cast<std::size_t>(group_of[k])].push_back(xs[i]);
  }
  // Sequential per-shard cuts: each sub-snapshot is issued only after the
  // previous one completed, so the values form a causally consistent read
  // sequence (weaker than the single-shard atomic cut; see RUNTIMES.md).
  struct Runner {
    static void step(ShardedEngine* eng, std::shared_ptr<SnapState> s) {
      const auto g = s->gi;
      eng->engines_[s->groups[g].first]->async_snapshot(
          s->group_vars[g],
          [eng, s](std::optional<std::vector<causal::Value>> vals) {
            if (!vals) {
              s->cb(std::nullopt);
              return;
            }
            const auto& idxs = s->groups[s->gi].second;
            for (std::size_t j = 0; j < idxs.size(); ++j) {
              s->out[idxs[j]] = std::move((*vals)[j]);
            }
            if (++s->gi == s->groups.size()) {
              s->cb(std::move(s->out));
            } else {
              step(eng, s);
            }
          });
    }
  };
  if (st->groups.empty()) {
    st->cb(std::vector<causal::Value>{});
    return;
  }
  Runner::step(this, st);
}

namespace {

struct TokenChain {
  std::vector<std::vector<std::uint8_t>> per_shard;
  ProtocolEngine::TokenCb cb;
};

}  // namespace

void ShardedEngine::async_token(causal::SiteId target,
                                ProtocolEngine::TokenCb cb) {
  if (map_.shards() == 1) {
    engines_[0]->async_token(target, std::move(cb));
    return;
  }
  auto st = std::make_shared<TokenChain>();
  st->cb = std::move(cb);
  struct Runner {
    static void step(ShardedEngine* eng, causal::SiteId target,
                     std::shared_ptr<TokenChain> s) {
      const std::uint32_t k = static_cast<std::uint32_t>(s->per_shard.size());
      eng->engines_[k]->async_token(
          target,
          [eng, target, s](std::optional<std::vector<std::uint8_t>> tok) {
            if (!tok) {
              s->cb(std::nullopt);
              return;
            }
            s->per_shard.push_back(std::move(*tok));
            if (s->per_shard.size() == eng->map_.shards()) {
              s->cb(causal::combine_shard_tokens(s->per_shard));
            } else {
              step(eng, target, s);
            }
          });
    }
  };
  Runner::step(this, target, st);
}

void ShardedEngine::async_covered(std::vector<std::uint8_t> token,
                                  std::uint64_t wait_us,
                                  ProtocolEngine::CoveredCb cb) {
  if (map_.shards() == 1) {
    engines_[0]->async_covered(std::move(token), wait_us, std::move(cb));
    return;
  }
  const auto split = causal::split_shard_tokens(token, map_.shards());
  if (!split) {
    cb(false);  // undecodable session token: same verdict as today
    return;
  }
  struct CovState {
    std::atomic<std::uint32_t> remaining{0};
    std::atomic<bool> ok{true};
    std::atomic<bool> aborted{false};
    ProtocolEngine::CoveredCb cb;
  };
  auto st = std::make_shared<CovState>();
  st->remaining.store(map_.shards(), std::memory_order_relaxed);
  st->cb = std::move(cb);
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    engines_[k]->async_covered(
        (*split)[k], wait_us, [st](std::optional<bool> v) {
          if (!v) {
            st->aborted.store(true, std::memory_order_relaxed);
          } else if (!*v) {
            st->ok.store(false, std::memory_order_relaxed);
          }
          if (st->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            if (st->aborted.load(std::memory_order_relaxed)) {
              st->cb(std::nullopt);
            } else {
              st->cb(st->ok.load(std::memory_order_relaxed));
            }
          }
        });
  }
}

// ---- blocking aggregation API ----

std::optional<ProtocolEngine::StatusSnapshot> ShardedEngine::status() {
  ProtocolEngine::StatusSnapshot sum;
  for (auto& e : engines_) {
    const auto s = e->status();
    if (!s) return std::nullopt;
    sum.writes += s->writes;
    sum.reads += s->reads;
    sum.pending_updates += s->pending_updates;
  }
  sum.pending_updates += parked_envelopes();
  return sum;
}

std::optional<std::vector<ShardedEngine::ShardStat>>
ShardedEngine::per_shard_stats() {
  std::vector<ShardStat> out;
  out.reserve(engines_.size());
  for (auto& e : engines_) {
    const auto s = e->status();
    if (!s) return std::nullopt;
    ShardStat row;
    row.queue = e->queue_stats();
    row.writes = s->writes;
    row.reads = s->reads;
    row.pending_updates = s->pending_updates;
    out.push_back(std::move(row));
  }
  return out;
}

std::optional<metrics::Metrics> ShardedEngine::protocol_metrics() {
  std::optional<metrics::Metrics> merged;
  for (auto& e : engines_) {
    auto m = e->protocol_metrics();
    if (!m) return std::nullopt;
    if (!merged) {
      merged = std::move(m);
    } else {
      merged->merge(*m);
    }
  }
  return merged;
}

std::optional<store::EngineStats> ShardedEngine::store_stats() {
  std::optional<store::EngineStats> sum;
  for (auto& e : engines_) {
    const auto s = e->store_stats();
    if (!s) return std::nullopt;
    if (sum) {
      *sum += *s;
    } else {
      sum = *s;
    }
  }
  return sum;
}

std::optional<Durability::Stats> ShardedEngine::durability_stats() {
  Durability::Stats sum;
  for (auto& e : engines_) {
    const auto s = e->durability_stats();
    if (!s) return std::nullopt;
    sum += *s;
  }
  return sum;
}

std::optional<Durability::CatchupProgress> ShardedEngine::catchup_progress() {
  Durability::CatchupProgress all;
  for (auto& e : engines_) {
    const auto p = e->catchup_progress();
    if (!p) return std::nullopt;
    all.recovered = all.recovered || p->recovered;
    all.complete = all.complete && p->complete;
  }
  return all;
}

std::vector<ProtocolEngine::QueueStats> ShardedEngine::queue_stats() const {
  std::vector<ProtocolEngine::QueueStats> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.push_back(e->queue_stats());
  return out;
}

}  // namespace ccpr::server
