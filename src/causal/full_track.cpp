#include "causal/full_track.hpp"

#include "util/assert.hpp"

namespace ccpr::causal {

FullTrack::FullTrack(SiteId self, const ReplicaMap& rmap, Services svc)
    : FullTrack(self, rmap, std::move(svc), Options{}) {}

FullTrack::FullTrack(SiteId self, const ReplicaMap& rmap, Services svc,
                     Options options)
    : ProtocolBase(self, rmap, std::move(svc), options.fetch_gating),
      n_(rmap.sites()),
      write_(n_),
      apply_(n_, 0) {}

void FullTrack::do_write(VarId x, std::string data) {
  CCPR_EXPECTS(x < rmap_.vars());
  const WriteId id = next_write_id();
  note_write_issued(x, id);

  const auto reps = rmap_.replicas(x);
  for (const SiteId j : reps) ++write_.at(self_, j);

  Value v = make_value(id, std::move(data));

  // The piggybacked clock is identical for every destination: encode once.
  net::Encoder enc;
  enc.varint(x);
  encode_value(enc, v);
  write_.encode(enc);
  const auto payload = static_cast<std::uint32_t>(v.data.size());
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

  if (rmap_.replicated_at(x, self_)) {
    ++apply_[self_];
    last_write_on_[x] = write_;
    apply_own_write(x, std::move(v));
  }
  sample_space();
}

bool FullTrack::ready(const Update& u) const {
  // A_OPT: all causally preceding writes destined to this site are applied,
  // and this is the next write from the sender destined here (FIFO slot).
  for (std::uint32_t k = 0; k < n_; ++k) {
    if (k == u.sender) continue;
    if (apply_[k] < u.w.at(k, self_)) return false;
  }
  return apply_[u.sender] == u.w.at(u.sender, self_) - 1;
}

void FullTrack::apply(Update&& u) {
  ++apply_[u.sender];
  last_write_on_[u.x] = std::move(u.w);
  apply_value(u.x, std::move(u.v), u.receipt);
}

void FullTrack::on_update(const net::Message& msg) {
  net::Decoder dec(msg.body);
  Update u;
  u.x = static_cast<VarId>(dec.varint());
  u.v = decode_value(dec);
  u.w = MatrixClock::decode(dec, n_);
  u.sender = msg.src;
  u.receipt = svc_.now();
  CCPR_ASSERT(dec.ok());
  pending_.submit(
      std::move(u), [this](const Update& p) { return ready(p); },
      [this](Update&& p) { apply(std::move(p)); });
  svc_.metrics->note_pending(pending_.size());
  sample_space();
}

void FullTrack::merge_on_local_read(VarId x) {
  const auto it = last_write_on_.find(x);
  if (it != last_write_on_.end()) write_.merge_max(it->second);
}

void FullTrack::encode_fetch_req_meta(net::Encoder& enc, VarId /*x*/,
                                      SiteId target) {
  // The reader's knowledge of writes destined to the fetch target: column
  // `target` of the Write matrix. The target must have applied at least
  // this many writes from each process before its copy of any variable is
  // guaranteed causally fresh for this reader.
  for (std::uint32_t k = 0; k < n_; ++k) enc.varint(write_.at(k, target));
}

bool FullTrack::fetch_ready(VarId /*x*/, net::Decoder& meta) {
  for (std::uint32_t k = 0; k < n_; ++k) {
    const std::uint64_t need = meta.varint();
    if (apply_[k] < need) return false;
  }
  CCPR_ASSERT(meta.ok());
  return true;
}

void FullTrack::encode_fetch_resp_meta(net::Encoder& enc, VarId x) {
  const auto it = last_write_on_.find(x);
  if (it == last_write_on_.end()) {
    enc.u8(0);
    return;
  }
  enc.u8(1);
  it->second.encode(enc);
}

void FullTrack::merge_fetch_resp_meta(VarId /*x*/, SiteId /*responder*/,
                                      net::Decoder& dec) {
  if (dec.u8() == 0) return;
  const MatrixClock m = MatrixClock::decode(dec, n_);
  CCPR_ASSERT(dec.ok());
  write_.merge_max(m);
}

bool FullTrack::locally_covered() const {
  // Column self of the Write clock counts the writes destined to this site
  // in the causal past; all of them must be applied.
  for (std::uint32_t k = 0; k < n_; ++k) {
    if (apply_[k] < write_.at(k, self_)) return false;
  }
  return true;
}

void FullTrack::serialize_meta(net::Encoder& enc) const {
  write_.encode(enc);
  for (std::uint32_t k = 0; k < n_; ++k) enc.varint(apply_[k]);
  enc.varint(last_write_on_.size());
  for (const auto& [x, m] : last_write_on_) {
    enc.varint(x);
    m.encode(enc);
  }
  const auto& pend = pending_.items();
  enc.varint(pend.size());
  for (const Update& u : pend) {
    enc.varint(u.x);
    encode_value(enc, u.v);
    enc.varint(u.sender);
    u.w.encode(enc);
  }
}

bool FullTrack::restore_meta(net::Decoder& dec) {
  write_ = MatrixClock::decode(dec, n_);
  for (std::uint32_t k = 0; k < n_; ++k) apply_[k] = dec.varint();
  const std::uint64_t lw = dec.varint();
  if (!dec.ok()) return false;
  last_write_on_.clear();
  for (std::uint64_t i = 0; i < lw; ++i) {
    const auto x = static_cast<VarId>(dec.varint());
    last_write_on_[x] = MatrixClock::decode(dec, n_);
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
    u.w = MatrixClock::decode(dec, n_);
    u.receipt = svc_.now();
    if (!dec.ok()) return false;
    pend.push_back(std::move(u));
  }
  pending_.restore(std::move(pend));
  return dec.ok();
}

void FullTrack::seal_local_meta() {
  for (const auto& [x, m] : last_write_on_) write_.merge_max(m);
}

std::uint64_t FullTrack::log_entry_count() const {
  // Matrix cells held locally: the Write clock plus one matrix per locally
  // replicated, written variable.
  return (1 + static_cast<std::uint64_t>(last_write_on_.size())) *
         static_cast<std::uint64_t>(n_) * n_;
}

std::uint64_t FullTrack::meta_state_bytes() const {
  // Every stored matrix is n x n like write_, so the total is closed-form.
  return write_.byte_size() +
         static_cast<std::uint64_t>(n_) * sizeof(std::uint64_t) +
         static_cast<std::uint64_t>(last_write_on_.size()) *
             (sizeof(VarId) + write_.byte_size());
}

void FullTrack::sample_space() {
  svc_.metrics->log_entries.add_sample(log_entry_count());
  svc_.metrics->meta_state_bytes.add_sample(meta_state_bytes());
}

}  // namespace ccpr::causal
