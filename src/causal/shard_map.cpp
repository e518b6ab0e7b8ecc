#include "causal/shard_map.hpp"

#include "net/wire.hpp"
#include "util/assert.hpp"

namespace ccpr::causal {

net::Message wrap_shard_envelope(std::uint32_t shard,
                                 const std::vector<ShardToken>& tokens,
                                 const net::Message& inner) {
  net::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(inner.kind));
  enc.varint(shard);
  enc.varint(tokens.size());
  for (const ShardToken& t : tokens) {
    enc.varint(t.shard);
    enc.varint(t.token.size());
    enc.raw(t.token.data(), t.token.size());
  }
  enc.raw(inner.body.data(), inner.body.size());

  net::Message env;
  env.kind = net::MsgKind::kShardEnvelope;
  env.src = inner.src;
  env.dst = inner.dst;
  env.body = enc.take();
  env.payload_bytes = inner.payload_bytes;
  env.chan_epoch = inner.chan_epoch;
  env.chan_seq = inner.chan_seq;
  return env;
}

std::optional<ShardEnvelope> unwrap_shard_envelope(const net::Message& env) {
  if (env.kind != net::MsgKind::kShardEnvelope || env.body.empty()) {
    return std::nullopt;
  }
  net::Decoder dec(env.body);
  const std::uint8_t inner_kind = dec.u8();
  if (inner_kind < static_cast<std::uint8_t>(net::MsgKind::kUpdate) ||
      inner_kind >= static_cast<std::uint8_t>(net::MsgKind::kShardEnvelope)) {
    return std::nullopt;  // nested envelopes are not a thing
  }
  ShardEnvelope out;
  out.shard = static_cast<std::uint32_t>(dec.varint());
  const std::uint64_t ntokens = dec.varint();
  if (!dec.ok() || ntokens > env.body.size()) return std::nullopt;
  out.tokens.reserve(static_cast<std::size_t>(ntokens));
  for (std::uint64_t i = 0; i < ntokens; ++i) {
    ShardToken t;
    t.shard = static_cast<std::uint32_t>(dec.varint());
    const std::uint64_t len = dec.varint();
    if (!dec.ok() || len > dec.remaining()) return std::nullopt;
    t.token = dec.raw(static_cast<std::size_t>(len));
    out.tokens.push_back(std::move(t));
  }
  if (!dec.ok()) return std::nullopt;
  out.inner.kind = static_cast<net::MsgKind>(inner_kind);
  out.inner.src = env.src;
  out.inner.dst = env.dst;
  out.inner.body = dec.raw(dec.remaining());
  out.inner.payload_bytes = env.payload_bytes;
  out.inner.chan_epoch = env.chan_epoch;
  out.inner.chan_seq = env.chan_seq;
  return out;
}

net::Message ShardChannels::wrap(std::uint32_t from_shard, net::Message m,
                                 const TokenOf& token_of) const {
  if (shards() == 1) return m;
  std::vector<ShardToken> tokens;
  if (m.kind == net::MsgKind::kUpdate || m.kind == net::MsgKind::kFetchResp) {
    tokens.reserve(shards() - 1);
    for (std::uint32_t j = 0; j < shards(); ++j) {
      if (j == from_shard) continue;
      std::vector<std::uint8_t> tok = token_of(j);
      if (!tok.empty()) tokens.push_back(ShardToken{j, std::move(tok)});
    }
  }
  return wrap_shard_envelope(from_shard, tokens, m);
}

std::optional<ShardChannels::Ticket> ShardChannels::push(
    const net::Message& msg) {
  std::optional<ShardEnvelope> env = unwrap_shard_envelope(msg);
  bool ok = env && env->shard < shards();
  for (std::size_t i = 0; ok && i < env->tokens.size(); ++i) {
    const std::uint32_t j = env->tokens[i].shard;
    ok = j < shards() && j != env->shard;
  }
  if (!ok) {
    ++malformed_;
    return std::nullopt;
  }
  // An empty token is trivially covered: it is no dependency.
  std::erase_if(env->tokens,
                [](const ShardToken& t) { return t.token.empty(); });
  const Channel c{msg.src, env->shard};
  Queue& ch = chans_[c];
  ch.q.push_back(Parked{std::move(*env)});
  ++parked_;
  return Ticket{c, ch.front_seq + ch.q.size() - 1};
}

template <class Self>
auto& ShardChannels::at(Self& self, const Ticket& t) {
  const auto it = self.chans_.find(t.chan);
  CCPR_EXPECTS(it != self.chans_.end() && t.seq >= it->second.front_seq &&
               t.seq - it->second.front_seq < it->second.q.size());
  return it->second.q[t.seq - it->second.front_seq];
}

const std::vector<ShardToken>& ShardChannels::deps(const Ticket& t) const {
  return at(*this, t).env.tokens;
}

void ShardChannels::open(const Ticket& t) { at(*this, t).open = true; }

std::optional<ShardEnvelope> ShardChannels::pop_open(Channel c) {
  const auto it = chans_.find(c);
  if (it == chans_.end() || !it->second.q.front().open) return std::nullopt;
  return pop(c);
}

std::size_t ShardChannels::depth(Channel c) const {
  const auto it = chans_.find(c);
  return it == chans_.end() ? 0 : it->second.q.size();
}

const std::vector<ShardToken>& ShardChannels::head_deps(Channel c) const {
  CCPR_EXPECTS(depth(c) > 0);
  return chans_.find(c)->second.q.front().env.tokens;
}

ShardEnvelope ShardChannels::pop(Channel c) {
  const auto it = chans_.find(c);
  CCPR_EXPECTS(it != chans_.end());
  ShardEnvelope env = std::move(it->second.q.front().env);
  it->second.q.pop_front();
  ++it->second.front_seq;
  if (it->second.q.empty()) chans_.erase(it);
  --parked_;
  return env;
}

std::vector<ShardChannels::Channel> ShardChannels::channels() const {
  std::vector<Channel> out;
  out.reserve(chans_.size());
  for (const auto& [c, q] : chans_) out.push_back(c);
  return out;
}

void ShardChannels::for_each_parked(
    const std::function<void(const ShardEnvelope&)>& fn) const {
  for (const auto& [c, ch] : chans_) {
    for (const Parked& p : ch.q) fn(p.env);
  }
}

std::vector<std::uint8_t> combine_shard_tokens(
    const std::vector<std::vector<std::uint8_t>>& per_shard) {
  if (per_shard.size() == 1) return per_shard[0];
  net::Encoder enc;
  enc.varint(per_shard.size());
  for (const auto& t : per_shard) {
    enc.varint(t.size());
    enc.raw(t.data(), t.size());
  }
  return enc.take();
}

std::optional<std::vector<std::vector<std::uint8_t>>> split_shard_tokens(
    const std::vector<std::uint8_t>& combined, std::uint32_t shards) {
  if (shards <= 1) return std::vector<std::vector<std::uint8_t>>{combined};
  net::Decoder dec(combined);
  const std::uint64_t n = dec.varint();
  if (!dec.ok() || n != shards) return std::nullopt;
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    const std::uint64_t len = dec.varint();
    if (!dec.ok() || len > dec.remaining()) return std::nullopt;
    out.push_back(dec.raw(static_cast<std::size_t>(len)));
  }
  if (!dec.ok() || !dec.exhausted()) return std::nullopt;
  return out;
}

}  // namespace ccpr::causal
