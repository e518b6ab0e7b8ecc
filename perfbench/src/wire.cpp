#include "wire.hpp"

#include <algorithm>
#include <cstring>

#include "causal/value_codec.hpp"
#include "net/wire.hpp"

namespace perfbench {

using ccpr::net::Decoder;
using ccpr::net::Encoder;
using ccpr::server::ClientOp;
using ccpr::server::ClientStatus;

namespace {

constexpr char kMagic[4] = {'P', 'B', 'v', '1'};
constexpr std::size_t kHeader = sizeof kMagic + 4 + 8 + 4;

std::uint8_t filler(const Stamp& s, std::size_t i) {
  return static_cast<std::uint8_t>('a' + (s.seq + s.session * 7 + s.key + i) % 26);
}

Encoder op(ClientOp o) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(o));
  return enc;
}

/// A decoder positioned after an ok status byte, or nullopt.
std::optional<Decoder> ok_body(const std::vector<std::uint8_t>& body) {
  Decoder dec(body.data(), body.size());
  if (dec.u8() != static_cast<std::uint8_t>(ClientStatus::kOk) || !dec.ok()) {
    return std::nullopt;
  }
  return dec;
}

/// The trailing flags byte of a hot-op response; tokens (if flagged) are
/// appended to `tokens` when non-null. False on malformed input.
bool read_flags(Decoder& dec, PutReply* tokens) {
  const std::uint8_t flags = dec.u8();
  if (!dec.ok()) return false;
  if ((flags & ccpr::server::kRespHasTokens) != 0) {
    const std::uint64_t n = dec.varint();
    for (std::uint64_t i = 0; i < n && dec.ok(); ++i) {
      const auto site = static_cast<ccpr::causal::SiteId>(dec.varint());
      const std::string tok = dec.bytes();
      if (tokens != nullptr) {
        tokens->tokens.emplace_back(
            site, std::vector<std::uint8_t>(tok.begin(), tok.end()));
      }
    }
  }
  return dec.ok() && dec.exhausted();
}

}  // namespace

std::string make_value(const Stamp& s, std::size_t size) {
  std::string v(std::max(size, kHeader), '\0');
  std::memcpy(v.data(), kMagic, sizeof kMagic);
  Encoder enc;
  enc.u32(s.session);
  enc.u64(s.seq);
  enc.u32(s.key);
  std::memcpy(v.data() + sizeof kMagic, enc.buffer().data(), enc.size());
  for (std::size_t i = kHeader; i < v.size(); ++i) {
    v[i] = static_cast<char>(filler(s, i));
  }
  return v;
}

std::optional<Stamp> parse_value(std::string_view data) {
  if (data.size() < kHeader || std::memcmp(data.data(), kMagic, 4) != 0) {
    return std::nullopt;
  }
  Decoder dec(reinterpret_cast<const std::uint8_t*>(data.data()) + 4,
              kHeader - 4);
  Stamp s;
  s.session = dec.u32();
  s.seq = dec.u64();
  s.key = dec.u32();
  if (!dec.ok()) return std::nullopt;
  for (std::size_t i = kHeader; i < data.size(); ++i) {
    if (static_cast<std::uint8_t>(data[i]) != filler(s, i)) return std::nullopt;
  }
  return s;
}

std::vector<std::uint8_t> encode_put(ccpr::causal::VarId x,
                                     std::string_view value,
                                     bool want_tokens) {
  Encoder enc = op(ClientOp::kPut);
  enc.varint(x);
  enc.bytes(value);
  enc.u8(want_tokens ? ccpr::server::kReqWantTokens : 0);
  return enc.take();
}

std::vector<std::uint8_t> encode_get(ccpr::causal::VarId x) {
  Encoder enc = op(ClientOp::kGet);
  enc.varint(x);
  enc.u8(0);
  return enc.take();
}

std::vector<std::uint8_t> encode_snapshot(
    const std::vector<ccpr::causal::VarId>& xs) {
  Encoder enc = op(ClientOp::kSnapshot);
  enc.varint(xs.size());
  for (const auto x : xs) enc.varint(x);
  enc.u8(0);
  return enc.take();
}

std::vector<std::uint8_t> encode_token(ccpr::causal::SiteId target) {
  Encoder enc = op(ClientOp::kToken);
  enc.varint(target);
  return enc.take();
}

std::vector<std::uint8_t> encode_covered(const std::vector<std::uint8_t>& token,
                                         std::uint64_t wait_us) {
  Encoder enc = op(ClientOp::kCovered);
  enc.varint(token.size());
  enc.raw(token.data(), token.size());
  enc.varint(wait_us);
  return enc.take();
}

std::vector<std::uint8_t> encode_admin(ClientOp o) { return op(o).take(); }

void append_frame(std::vector<std::uint8_t>& out,
                  const std::vector<std::uint8_t>& body) {
  const auto n = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  out.insert(out.end(), body.begin(), body.end());
}

std::optional<PutReply> decode_put(const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  PutReply r;
  const std::uint64_t writer = dec->varint();
  r.id.writer = writer == 0 ? ccpr::causal::kNoSite
                            : static_cast<ccpr::causal::SiteId>(writer - 1);
  r.id.seq = dec->varint();
  r.lamport = dec->varint();
  if (!dec->ok() || writer == 0 || !read_flags(*dec, &r)) return std::nullopt;
  return r;
}

std::optional<ccpr::causal::Value> decode_get(
    const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  ccpr::causal::Value v = ccpr::causal::decode_value(*dec);
  if (!dec->ok() || !read_flags(*dec, nullptr)) return std::nullopt;
  return v;
}

std::optional<std::vector<ccpr::causal::Value>> decode_snapshot(
    const std::vector<std::uint8_t>& body, std::size_t expected) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  const std::uint64_t n = dec->varint();
  if (!dec->ok() || n != expected) return std::nullopt;
  std::vector<ccpr::causal::Value> out;
  for (std::uint64_t i = 0; i < n && dec->ok(); ++i) {
    out.push_back(ccpr::causal::decode_value(*dec));
  }
  if (!dec->ok() || !read_flags(*dec, nullptr)) return std::nullopt;
  return out;
}

std::optional<std::vector<std::uint8_t>> decode_token(
    const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  const std::string tok = dec->bytes();
  if (!dec->ok() || !dec->exhausted()) return std::nullopt;
  return std::vector<std::uint8_t>(tok.begin(), tok.end());
}

std::optional<bool> decode_covered(const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  const std::uint8_t covered = dec->u8();
  if (!dec->ok() || !dec->exhausted() || covered > 1) return std::nullopt;
  return covered == 1;
}

bool decode_ok(const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  return dec && dec->exhausted();
}

std::optional<std::string> decode_metrics(
    const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  std::string text = dec->bytes();
  if (!dec->ok() || !dec->exhausted()) return std::nullopt;
  return text;
}

std::optional<ccpr::store::EngineStats> decode_store_stat(
    const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  ccpr::store::EngineStats s;
  s.kind = static_cast<ccpr::store::EngineKind>(dec->u8());
  s.keys = dec->varint();
  s.resident_bytes = dec->varint();
  s.index_slots = dec->varint();
  s.lookups = dec->varint();
  s.probes = dec->varint();
  s.spilled_keys = dec->varint();
  s.spill_segment_bytes = dec->varint();
  s.spill_reads = dec->varint();
  s.spill_writes = dec->varint();
  s.compactions = dec->varint();
  if (!dec->ok() || !dec->exhausted()) return std::nullopt;
  return s;
}

std::optional<EngineStat> decode_engine_stat(
    const std::vector<std::uint8_t>& body) {
  auto dec = ok_body(body);
  if (!dec) return std::nullopt;
  EngineStat s;
  s.shards = dec->varint();
  s.parked_envelopes = dec->varint();
  s.malformed_envelopes = dec->varint();
  for (std::uint64_t k = 0; k < s.shards && dec->ok(); ++k) {
    EngineStat::Row r;
    r.writes = dec->varint();
    r.reads = dec->varint();
    r.pending = dec->varint();
    r.depth = dec->varint();
    r.capacity = dec->varint();
    r.peak = dec->varint();
    r.producer_waits = dec->varint();
    r.parked_reads = dec->varint();
    r.covered_waiters = dec->varint();
    r.enqueued_total = dec->varint();
    s.rows.push_back(r);
  }
  if (!dec->ok() || !dec->exhausted()) return std::nullopt;
  return s;
}

}  // namespace perfbench
