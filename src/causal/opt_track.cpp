#include "causal/opt_track.hpp"

#include "util/assert.hpp"

namespace ccpr::causal {

OptTrack::OptTrack(SiteId self, const ReplicaMap& rmap, Services svc)
    : OptTrack(self, rmap, std::move(svc), Options{}) {}

OptTrack::OptTrack(SiteId self, const ReplicaMap& rmap, Services svc,
                   Options options)
    : ProtocolBase(self, rmap, std::move(svc), options.fetch_gating),
      options_(options),
      apply_(rmap.sites(), 0),
      known_apply_(static_cast<std::size_t>(rmap.sites()) * rmap.sites(),
                   0) {}

void OptTrack::encode_apply_vector(net::Encoder& enc) const {
  for (const std::uint64_t a : apply_) enc.varint(a);
}

void OptTrack::absorb_apply_vector(SiteId from, net::Decoder& dec) {
  const std::uint32_t n = rmap_.sites();
  auto* row = known_apply_.data() + static_cast<std::size_t>(from) * n;
  for (std::uint32_t z = 0; z < n; ++z) {
    const std::uint64_t a = dec.varint();
    if (a > row[z]) row[z] = a;
  }
}

void OptTrack::discharge_log(Log& log) const {
  if (!gossip_enabled()) return;
  const std::uint32_t n = rmap_.sites();
  for (LogEntry& e : log) {
    if (e.dests.empty()) continue;
    DestSet remaining;
    for (const SiteId d : e.dests.span()) {
      if (known_apply_[static_cast<std::size_t>(d) * n + e.sender] <
          e.clock) {
        remaining.insert(d);
      }
    }
    e.dests = std::move(remaining);
  }
}

MergePolicy OptTrack::merge_policy() const {
  return options_.aggressive_merge ? MergePolicy::kPaperAggressive
                                   : MergePolicy::kConservative;
}

void OptTrack::do_write(VarId x, std::string data) {
  CCPR_EXPECTS(x < rmap_.vars());
  // clock_ mirrors the WriteId seq so protocol clocks equal write ids on
  // the wire. On a sharded site the seq space is strided (disjoint per
  // shard) — fine, because ready()/discharge_log()/purge_log() only ever
  // compare clocks by threshold, never by successor.
  const WriteId id = next_write_id();
  clock_ = id.seq;
  note_write_issued(x, id);

  const auto reps = rmap_.replicas(x);
  const DestSet reps_set{reps};
  Value v = make_value(id, std::move(data));
  const auto payload = static_cast<std::uint32_t>(v.data.size());

  discharge_log(log_);
  purge_log(log_);

  if (options_.distribute_write) {
    // Ship the unpruned log once; receivers subtract x.replicas themselves.
    net::Encoder enc;
    enc.varint(x);
    encode_value(enc, v);
    enc.varint(clock_);
    enc.varint(reps.size());
    for (const SiteId s : reps) enc.varint(s);
    encode_log(enc, log_);
    if (gossip_enabled()) encode_apply_vector(enc);
    const auto& body = enc.buffer();
    for (const SiteId j : reps) {
      if (j == self_) continue;
      net::Message msg;
      msg.kind = net::MsgKind::kUpdate;
      msg.src = self_;
      msg.dst = j;
      msg.body = body;
      msg.payload_bytes = payload;
      svc_.send(std::move(msg));
    }
  } else {
    for (const SiteId j : reps) {
      if (j == self_) continue;
      Log lw = log_;
      if (options_.prune_cond2) {
        for (LogEntry& o : lw) {
          // Condition 2: destinations covered by this write's replica set
          // are subsumed — except s_j's own membership, which the receiver's
          // activation predicate needs (paper lines 5-6, branches corrected).
          const bool had_j = o.dests.contains(j);
          o.dests.subtract(reps);
          if (had_j) o.dests.insert(j);
        }
        purge_log(lw);
      }
      net::Encoder enc;
      enc.varint(x);
      encode_value(enc, v);
      enc.varint(clock_);
      enc.varint(reps.size());
      for (const SiteId s : reps) enc.varint(s);
      encode_log(enc, lw);
      if (gossip_enabled()) encode_apply_vector(enc);
      svc_.send(make_message(net::MsgKind::kUpdate, j, std::move(enc),
                             payload));
    }
  }

  if (options_.prune_cond2) {
    for (LogEntry& l : log_) l.dests.subtract(reps);
  }
  purge_log(log_);
  DestSet own = reps_set;
  own.erase(self_);
  log_.push_back(LogEntry{self_, clock_, std::move(own)});

  if (rmap_.replicated_at(x, self_)) {
    apply_[self_] = clock_;
    known_apply_[static_cast<std::size_t>(self_) * rmap_.sites() + self_] =
        clock_;
    set_last_write_on(x, log_);
    apply_own_write(x, std::move(v));
  }
  sample_space();
}

bool OptTrack::ready(const Update& u) const {
  for (const LogEntry& o : u.log) {
    if (o.dests.contains(self_) && apply_[o.sender] < o.clock) return false;
  }
  return true;
}

void OptTrack::apply(Update&& u) {
  apply_[u.sender] = u.clock;
  const std::uint32_t n = rmap_.sites();
  auto& self_knows_sender =
      known_apply_[static_cast<std::size_t>(self_) * n + u.sender];
  if (u.clock > self_knows_sender) self_knows_sender = u.clock;
  // The sender applied its own write when it issued it.
  auto& sender_knows_self =
      known_apply_[static_cast<std::size_t>(u.sender) * n + u.sender];
  if (u.clock > sender_knows_self && u.replicas.contains(u.sender)) {
    sender_knows_self = u.clock;
  }
  Log lw = std::move(u.log);
  if (options_.distribute_write) {
    // Receiver-side Condition 2 (deferred from the sender).
    if (options_.prune_cond2) {
      for (LogEntry& o : lw) o.dests.subtract(u.replicas);
      purge_log(lw);
    }
  }
  lw.push_back(LogEntry{u.sender, u.clock, std::move(u.replicas)});
  if (options_.prune_cond1) {
    for (LogEntry& o : lw) o.dests.erase(self_);
  }
  set_last_write_on(u.x, std::move(lw));
  apply_value(u.x, std::move(u.v), u.receipt);
}

void OptTrack::on_update(const net::Message& msg) {
  net::Decoder dec(msg.body);
  Update u;
  u.x = static_cast<VarId>(dec.varint());
  u.v = decode_value(dec);
  u.clock = dec.varint();
  const std::uint64_t k = dec.varint();
  for (std::uint64_t i = 0; i < k && dec.ok(); ++i) {
    u.replicas.insert(static_cast<SiteId>(dec.varint()));
  }
  u.log = decode_log(dec);
  if (gossip_enabled()) absorb_apply_vector(msg.src, dec);
  u.sender = msg.src;
  u.receipt = svc_.now();
  CCPR_ASSERT(dec.ok());
  pending_.submit(
      std::move(u), [this](const Update& p) { return ready(p); },
      [this](Update&& p) { apply(std::move(p)); });
  svc_.metrics->note_pending(pending_.size());
  sample_space();
}

void OptTrack::merge_on_local_read(VarId x) {
  const auto it = last_write_on_.find(x);
  if (it == last_write_on_.end()) return;
  merge_logs(log_, it->second, merge_policy());
  discharge_log(log_);
  purge_log(log_);
  sample_space();
}

void OptTrack::encode_fetch_req_meta(net::Encoder& enc, VarId /*x*/,
                                     SiteId target) {
  // Freshness requirement: every write in the reader's causal past that is
  // destined to the target must be applied there before it may answer.
  std::uint64_t count = 0;
  for (const LogEntry& o : log_) {
    if (o.dests.contains(target)) ++count;
  }
  enc.varint(count);
  for (const LogEntry& o : log_) {
    if (o.dests.contains(target)) {
      enc.varint(o.sender);
      enc.varint(o.clock);
    }
  }
}

bool OptTrack::fetch_ready(VarId /*x*/, net::Decoder& meta) {
  const std::uint64_t k = meta.varint();
  bool ok = true;
  for (std::uint64_t i = 0; i < k && meta.ok(); ++i) {
    const auto sender = static_cast<SiteId>(meta.varint());
    const std::uint64_t clk = meta.varint();
    if (apply_[sender] < clk) ok = false;
  }
  CCPR_ASSERT(meta.ok());
  return ok;
}

void OptTrack::encode_fetch_resp_meta(net::Encoder& enc, VarId x) {
  const auto it = last_write_on_.find(x);
  if (it == last_write_on_.end()) {
    enc.u8(0);
    if (gossip_enabled()) encode_apply_vector(enc);
    return;
  }
  enc.u8(1);
  encode_log(enc, it->second);
  if (gossip_enabled()) encode_apply_vector(enc);
}

void OptTrack::merge_fetch_resp_meta(VarId /*x*/, SiteId responder,
                                     net::Decoder& dec) {
  if (dec.u8() == 0) {
    if (gossip_enabled()) {
      absorb_apply_vector(responder, dec);
      discharge_log(log_);
      purge_log(log_);
      sample_space();
    }
    return;
  }
  Log lw = decode_log(dec);
  if (gossip_enabled()) absorb_apply_vector(responder, dec);
  CCPR_ASSERT(dec.ok());
  merge_logs(log_, std::move(lw), merge_policy());
  discharge_log(log_);
  purge_log(log_);
  sample_space();
}

bool OptTrack::locally_covered() const {
  // Log records naming this site as a destination are exactly the writes in
  // the causal past that must land here; transitively later records cover
  // the pruned ones (same argument as the activation predicate).
  for (const LogEntry& o : log_) {
    if (o.dests.contains(self_) && apply_[o.sender] < o.clock) return false;
  }
  return true;
}

void OptTrack::serialize_meta(net::Encoder& enc) const {
  enc.varint(clock_);
  for (const std::uint64_t a : apply_) enc.varint(a);
  for (const std::uint64_t a : known_apply_) enc.varint(a);
  encode_log(enc, log_);
  enc.varint(last_write_on_.size());
  for (const auto& [x, lw] : last_write_on_) {
    enc.varint(x);
    encode_log(enc, lw);
  }
  const auto& pend = pending_.items();
  enc.varint(pend.size());
  for (const Update& u : pend) {
    enc.varint(u.x);
    encode_value(enc, u.v);
    enc.varint(u.sender);
    enc.varint(u.clock);
    enc.varint(u.replicas.size());
    for (const SiteId s : u.replicas.span()) enc.varint(s);
    encode_log(enc, u.log);
  }
}

bool OptTrack::restore_meta(net::Decoder& dec) {
  clock_ = dec.varint();
  for (std::uint64_t& a : apply_) a = dec.varint();
  for (std::uint64_t& a : known_apply_) a = dec.varint();
  log_ = decode_log(dec);
  const std::uint64_t lw = dec.varint();
  if (!dec.ok()) return false;
  last_write_on_.clear();
  last_write_on_bytes_ = 0;
  for (std::uint64_t i = 0; i < lw; ++i) {
    const auto x = static_cast<VarId>(dec.varint());
    set_last_write_on(x, decode_log(dec));
  }
  const std::uint64_t np = dec.varint();
  if (!dec.ok()) return false;
  std::vector<Update> pend;
  pend.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) {
    Update u;
    u.x = static_cast<VarId>(dec.varint());
    u.v = decode_value(dec);
    u.sender = static_cast<SiteId>(dec.varint());
    u.clock = dec.varint();
    const std::uint64_t k = dec.varint();
    for (std::uint64_t j = 0; j < k && dec.ok(); ++j) {
      u.replicas.insert(static_cast<SiteId>(dec.varint()));
    }
    u.log = decode_log(dec);
    u.receipt = svc_.now();
    if (!dec.ok()) return false;
    pend.push_back(std::move(u));
  }
  pending_.restore(std::move(pend));
  return dec.ok();
}

void OptTrack::seal_local_meta() {
  for (const auto& [x, lw] : last_write_on_) {
    merge_logs(log_, lw, merge_policy());
  }
  discharge_log(log_);
  purge_log(log_);
  sample_space();
}

void OptTrack::set_last_write_on(VarId x, Log lw) {
  const auto [it, inserted] = last_write_on_.try_emplace(x);
  if (inserted) last_write_on_bytes_ += sizeof(VarId);
  last_write_on_bytes_ -= log_byte_size(it->second);  // 0 when inserted
  last_write_on_bytes_ += log_byte_size(lw);
  it->second = std::move(lw);
}

std::uint64_t OptTrack::meta_state_bytes() const {
  return sizeof(std::uint64_t) +
         static_cast<std::uint64_t>(apply_.size()) * sizeof(std::uint64_t) +
         (gossip_enabled()
              ? static_cast<std::uint64_t>(known_apply_.size()) *
                    sizeof(std::uint64_t)
              : 0) +
         log_byte_size(log_) + last_write_on_bytes_;
}

void OptTrack::sample_space() {
  svc_.metrics->log_entries.add_sample(log_.size());
  svc_.metrics->meta_state_bytes.add_sample(meta_state_bytes());
}

}  // namespace ccpr::causal
