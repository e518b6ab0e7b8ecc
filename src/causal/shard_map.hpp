// Deterministic VarId -> engine-shard map plus the shard-envelope codec.
//
// A site running with `engine-shards N` partitions its keyspace into N
// independent protocol instances ("engine shards"). Every runtime — sim,
// threaded, TCP — derives the same partition from the cluster-wide shard
// count, so shard k's protocol at site i only ever talks to shard k's
// protocol at site j. Cross-shard causal dependencies are carried on the
// wire as explicit coverage tokens (the same freshness requirement client
// session migration already uses): an update sent by shard k is wrapped in
// a kShardEnvelope that names the shard and attaches, for every *other*
// shard at the sending site, that shard's coverage token for the
// destination. The receiver holds the inner message until its own shards
// cover those tokens, which restores exactly the cross-shard causal order
// the single-engine runtime got for free.
//
// Envelope body layout (inner kind first, so transports can classify
// metrics by peeking one byte):
//
//   [u8 inner_kind][varint shard][varint ntokens]
//     { [varint shard_j][varint token_len][token bytes] }*
//   [inner body, raw]
//
// The envelope message copies src/dst/chan_epoch/chan_seq/payload_bytes
// from the inner message, so per-channel FIFO dedup and the paper's
// metadata-bytes accounting (control_bytes = frame minus payload) keep
// working; token bytes are automatically counted as metadata.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "causal/types.hpp"
#include "net/message.hpp"

namespace ccpr::causal {

/// Deterministic, version-stable VarId -> shard map. All sites and all
/// runtimes must agree on it, so it is a fixed mixer hash — never derived
/// from runtime state.
class ShardMap {
 public:
  ShardMap() = default;
  explicit ShardMap(std::uint32_t shards) : shards_(shards ? shards : 1) {}

  std::uint32_t shards() const noexcept { return shards_; }

  std::uint32_t shard_of(VarId x) const noexcept {
    if (shards_ == 1) return 0;
    return static_cast<std::uint32_t>(mix(x) % shards_);
  }

  /// The stable 64-bit mixer behind shard_of (splitmix64 finalizer).
  /// Exposed so the distribution/stability unit test can pin golden values.
  static std::uint64_t mix(VarId x) noexcept {
    std::uint64_t z = static_cast<std::uint64_t>(x) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  std::uint32_t shards_ = 1;
};

/// One cross-shard dependency: "the destination site's shard `shard` must
/// cover `token` before the enveloped message may be applied".
struct ShardToken {
  std::uint32_t shard = 0;
  std::vector<std::uint8_t> token;
};

/// A decoded shard envelope: the target shard, the cross-shard dependency
/// tokens, and the reconstructed inner message.
struct ShardEnvelope {
  std::uint32_t shard = 0;
  std::vector<ShardToken> tokens;
  net::Message inner;
};

/// Wrap `inner` in a kShardEnvelope addressed to shard `shard` at the
/// destination. Channel/accounting fields are copied from the inner
/// message (see file comment).
net::Message wrap_shard_envelope(std::uint32_t shard,
                                 const std::vector<ShardToken>& tokens,
                                 const net::Message& inner);

/// Decode an envelope produced by wrap_shard_envelope. Returns nullopt on
/// a malformed body (wrong kind, truncated tokens, bad inner kind).
std::optional<ShardEnvelope> unwrap_shard_envelope(const net::Message& env);

/// Peek the inner message kind of an envelope body without decoding it
/// (for transport metric classification). Returns 0 on an empty body.
inline std::uint8_t shard_envelope_inner_kind(
    const std::vector<std::uint8_t>& body) noexcept {
  return body.empty() ? 0 : body[0];
}

/// The cross-shard envelope state machine both sharded runtimes drive
/// (causal::ShardGroup inline, server::ShardedEngine under its admission
/// mutex). It makes every envelope decision; the runtimes only decide *how*
/// a dependency gets checked (a direct covered_by call, or a covered-waiter
/// posted to another apply thread) and where a released message goes.
///
///  * Outbound (wrap): with one shard a strict passthrough. Otherwise a
///    kUpdate / kFetchResp from shard k carries token_of(j) for every other
///    shard j — updates so the receiver cannot apply w before its
///    cross-shard past, fetch responses so a reader cannot return v before
///    v's cross-shard past is applied locally. Empty tokens are trivially
///    covered and left out. Other kinds are wrapped for demux only.
///  * Inbound (push): an envelope is malformed — dropped and counted — if
///    it is not an envelope, does not decode, targets a shard >= N, or has
///    a token naming a shard >= N or the target shard itself (a peer with a
///    different shard count produces exactly these). Admitted envelopes
///    join their per-(source site, target shard) FIFO channel and get a
///    ticket. A runtime may check any parked envelope's dependencies at
///    once (deps), whatever waits ahead of it, and mark it open when they
///    are met; coverage only grows, so an open envelope stays releasable.
///    Release is still in channel order: pop_open hands out the head only
///    while it is open, so an open envelope waits behind an unmet one.
///    ShardGroup instead re-checks head_deps and pops heads directly.
///
/// Not thread-safe, except that wrap() reads no channel state and may run
/// concurrently with anything.
class ShardChannels {
 public:
  /// One inbound FIFO: (source site, target shard).
  using Channel = std::pair<SiteId, std::uint32_t>;
  using TokenOf = std::function<std::vector<std::uint8_t>(std::uint32_t)>;

  /// Names one admitted envelope while it is parked: its channel and its
  /// position in that channel's arrival order.
  struct Ticket {
    Channel chan;
    std::uint64_t seq = 0;
  };

  explicit ShardChannels(std::uint32_t shards) : map_(shards) {}

  std::uint32_t shards() const noexcept { return map_.shards(); }

  /// Wrap shard `from_shard`'s outbound `m` (see class comment). token_of
  /// is called only for the shards whose tokens the message carries.
  net::Message wrap(std::uint32_t from_shard, net::Message m,
                    const TokenOf& token_of) const;

  /// Validate `msg` and append it to its channel. Returns its ticket, or
  /// nullopt (counted in malformed()) when the envelope is rejected.
  std::optional<Ticket> push(const net::Message& msg);

  /// The cross-shard dependencies of parked envelope `t`: every token the
  /// target site's shards must cover before it may be released. Empty
  /// means no dependency.
  const std::vector<ShardToken>& deps(const Ticket& t) const;
  /// Mark parked envelope `t` open: its dependencies are met.
  void open(const Ticket& t);
  /// Remove and return the head of `c` if it is open; nullopt if `c` is
  /// empty or its head is not open yet.
  std::optional<ShardEnvelope> pop_open(Channel c);

  /// Envelopes queued on `c` (0 once its last envelope is popped).
  std::size_t depth(Channel c) const;
  /// The head of `c`'s cross-shard dependencies: every token the target
  /// site's shards must cover before the head may be released. Empty means
  /// releasable now. Requires depth(c) > 0.
  const std::vector<ShardToken>& head_deps(Channel c) const;
  /// Remove and return the head of `c`. Requires depth(c) > 0.
  ShardEnvelope pop(Channel c);

  /// Every non-empty channel, in a deterministic (sorted) order.
  std::vector<Channel> channels() const;
  /// Visit every parked envelope, channel by channel in FIFO order.
  void for_each_parked(
      const std::function<void(const ShardEnvelope&)>& fn) const;

  std::size_t parked() const noexcept { return parked_; }
  std::uint64_t malformed() const noexcept { return malformed_; }

 private:
  struct Parked {
    ShardEnvelope env;
    bool open = false;
  };
  /// One channel's parked envelopes in arrival order; the head holds
  /// ticket `front_seq`. An empty queue is erased: no ticket names it.
  struct Queue {
    std::deque<Parked> q;
    std::uint64_t front_seq = 0;
  };

  /// The parked slot `t` names (const or not, after `self`).
  template <class Self>
  static auto& at(Self& self, const Ticket& t);

  ShardMap map_;
  std::map<Channel, Queue> chans_;
  std::size_t parked_ = 0;
  std::uint64_t malformed_ = 0;
};

// ---- multi-shard session tokens -------------------------------------------
//
// Client-visible coverage tokens for a sharded site are the framed
// concatenation of every shard's token:
//
//   [varint nshards] { [varint token_len][token bytes] }*
//
// With one shard the raw single-protocol token is used unchanged, so
// `engine-shards 1` stays byte-identical to the unsharded build.

/// Concatenate per-shard tokens into one client-visible session token.
/// `per_shard[k]` is shard k's token. Passthrough when size() == 1.
std::vector<std::uint8_t> combine_shard_tokens(
    const std::vector<std::vector<std::uint8_t>>& per_shard);

/// Split a combined token back into per-shard tokens. `shards` is the
/// expected count; nullopt on malformed input or count mismatch (callers
/// treat that like any other garbage token: not covered). Passthrough when
/// shards == 1.
std::optional<std::vector<std::vector<std::uint8_t>>> split_shard_tokens(
    const std::vector<std::uint8_t>& combined, std::uint32_t shards);

}  // namespace ccpr::causal
