#include "causal/shard_group.hpp"

#include <algorithm>
#include <string_view>

#include "net/wire.hpp"
#include "util/assert.hpp"

namespace ccpr::causal {

ShardGroup::ShardGroup(std::uint32_t shards, Services svc,
                       const ProtocolBuilder& builder)
    : map_(shards), channels_(shards), outer_(std::move(svc)) {
  inner_.reserve(map_.shards());
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    Services sk = outer_;
    sk.send = [this, k](net::Message m) {
      const SiteId dst = m.dst;
      outer_.send(channels_.wrap(k, std::move(m), [this, dst](std::uint32_t j) {
        return inner_[j]->coverage_token(dst);
      }));
    };
    if (outer_.schedule) {
      // Timer callbacks are protocol entry points: applying a deferred
      // fetch/activation can cover parked cross-shard tokens, so re-scan
      // after every one.
      sk.schedule = [this](sim::SimTime delay, std::function<void()> fn) {
        outer_.schedule(delay, [this, fn = std::move(fn)] {
          fn();
          rescan_parked();
        });
      };
    }
    inner_.push_back(builder(k, std::move(sk)));
    CCPR_ASSERT(inner_.back() != nullptr);
  }
}

void ShardGroup::write(VarId x, std::string data) {
  const std::uint32_t k = map_.shard_of(x);
  inner_[k]->write(x, std::move(data));
  last_write_shard_ = k;
  has_local_write_ = true;
}

void ShardGroup::read(VarId x, ReadContinuation k) {
  inner_[map_.shard_of(x)]->read(x, std::move(k));
}

void ShardGroup::on_message(const net::Message& msg) {
  if (map_.shards() == 1) {
    inner_[0]->on_message(msg);
    return;
  }
  if (channels_.push(msg)) rescan_parked();
}

void ShardGroup::rescan_parked() {
  // A read continuation delivered below may synchronously issue further
  // ShardGroup operations; the guard turns such nested re-scans into no-ops
  // while the outer loop runs to its fixpoint.
  if (rescanning_ || channels_.parked() == 0) return;
  rescanning_ = true;
  const auto covered = [this](const ShardToken& t) {
    return inner_[t.shard]->covered_by(t.token);
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (const ShardChannels::Channel& c : channels_.channels()) {
      while (channels_.depth(c) > 0 &&
             std::all_of(channels_.head_deps(c).begin(),
                         channels_.head_deps(c).end(), covered)) {
        const ShardEnvelope env = channels_.pop(c);
        progress = true;
        inner_[env.shard]->on_message(env.inner);
      }
    }
  }
  rescanning_ = false;
}

WriteId ShardGroup::last_write_id() const {
  return inner_[has_local_write_ ? last_write_shard_ : 0]->last_write_id();
}

const Value& ShardGroup::peek(VarId x) const {
  return inner_[map_.shard_of(x)]->peek(x);
}

std::vector<std::uint8_t> ShardGroup::coverage_token(SiteId target) {
  std::vector<std::vector<std::uint8_t>> per;
  per.reserve(map_.shards());
  for (auto& p : inner_) per.push_back(p->coverage_token(target));
  return combine_shard_tokens(per);
}

bool ShardGroup::covered_by(const std::vector<std::uint8_t>& token) {
  const auto split = split_shard_tokens(token, map_.shards());
  if (!split) return false;
  for (std::uint32_t k = 0; k < map_.shards(); ++k) {
    if (!inner_[k]->covered_by((*split)[k])) return false;
  }
  return true;
}

void ShardGroup::serialize_state(net::Encoder& enc) const {
  enc.varint(map_.shards());
  for (const auto& p : inner_) {
    net::Encoder sub;
    p->serialize_state(sub);
    enc.bytes(std::string_view(
        reinterpret_cast<const char*>(sub.buffer().data()),
        sub.buffer().size()));
  }
  enc.varint(channels_.parked());
  channels_.for_each_parked([&enc](const ShardEnvelope& env) {
    const net::Message m =
        wrap_shard_envelope(env.shard, env.tokens, env.inner);
    enc.varint(m.src);
    enc.varint(m.dst);
    enc.varint(m.payload_bytes);
    enc.varint(m.chan_epoch);
    enc.varint(m.chan_seq);
    enc.bytes(std::string_view(reinterpret_cast<const char*>(m.body.data()),
                               m.body.size()));
  });
}

bool ShardGroup::restore_state(net::Decoder& dec) {
  if (dec.varint() != map_.shards() || !dec.ok()) return false;
  for (auto& p : inner_) {
    const std::string s = dec.bytes();
    if (!dec.ok()) return false;
    net::Decoder sub(reinterpret_cast<const std::uint8_t*>(s.data()),
                     s.size());
    if (!p->restore_state(sub)) return false;
  }
  const std::uint64_t nparked = dec.varint();
  if (!dec.ok()) return false;
  for (std::uint64_t i = 0; i < nparked; ++i) {
    net::Message m;
    m.kind = net::MsgKind::kShardEnvelope;
    m.src = static_cast<SiteId>(dec.varint());
    m.dst = static_cast<SiteId>(dec.varint());
    m.payload_bytes = static_cast<std::uint32_t>(dec.varint());
    m.chan_epoch = dec.varint();
    m.chan_seq = dec.varint();
    const std::string body = dec.bytes();
    if (!dec.ok()) return false;
    m.body.assign(body.begin(), body.end());
    if (!channels_.push(m)) return false;
  }
  rescan_parked();
  return true;
}

void ShardGroup::replay_meta_merge(VarId x, SiteId responder,
                                   const std::uint8_t* data, std::size_t len) {
  inner_[map_.shard_of(x)]->replay_meta_merge(x, responder, data, len);
}

void ShardGroup::merge_all_local_meta() {
  for (auto& p : inner_) p->merge_all_local_meta();
}

void ShardGroup::on_durable_checkpoint(std::uint64_t gen) {
  for (auto& p : inner_) p->on_durable_checkpoint(gen);
}

store::EngineStats ShardGroup::store_stats() const {
  store::EngineStats sum = inner_[0]->store_stats();
  for (std::size_t k = 1; k < inner_.size(); ++k) {
    sum += inner_[k]->store_stats();
  }
  return sum;
}

std::size_t ShardGroup::pending_update_count() const {
  std::size_t n = channels_.parked();
  for (const auto& p : inner_) n += p->pending_update_count();
  return n;
}

std::uint64_t ShardGroup::log_entry_count() const {
  std::uint64_t n = 0;
  for (const auto& p : inner_) n += p->log_entry_count();
  return n;
}

std::uint64_t ShardGroup::meta_state_bytes() const {
  std::uint64_t n = 0;
  for (const auto& p : inner_) n += p->meta_state_bytes();
  return n;
}

Algorithm ShardGroup::algorithm() const { return inner_[0]->algorithm(); }

}  // namespace ccpr::causal
