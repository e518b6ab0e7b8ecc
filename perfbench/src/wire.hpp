// Client-protocol request encoders and response decoders for the load
// generator, plus the stamp every generated value carries.
//
// The generator speaks server/client_protocol.hpp directly instead of going
// through client::Client, because it pipelines many requests per connection
// and matches responses positionally. Every encoder emits the trailing opts
// byte, so every hot-op response ends in a flags byte; a decoder accepts a
// response only if it is ok and consumes the body exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causal/types.hpp"
#include "server/client_protocol.hpp"
#include "store/engine/value_engine.hpp"

namespace perfbench {

/// Who wrote a value: session 0 is the preload, sessions 1.. are the
/// generator's sessions; `seq` counts that session's puts from 1 (the
/// preload uses 0).
struct Stamp {
  std::uint32_t session = 0;
  std::uint64_t seq = 0;
  std::uint32_t key = 0;
  bool operator==(const Stamp&) const = default;
};

/// A `size`-byte value carrying `s` and a filler derived from it, so a
/// torn or foreign value fails parse_value.
std::string make_value(const Stamp& s, std::size_t size);
std::optional<Stamp> parse_value(std::string_view data);

// ---- request bodies (without the u32 length prefix) ----

std::vector<std::uint8_t> encode_put(ccpr::causal::VarId x,
                                     std::string_view value,
                                     bool want_tokens);
std::vector<std::uint8_t> encode_get(ccpr::causal::VarId x);
std::vector<std::uint8_t> encode_snapshot(
    const std::vector<ccpr::causal::VarId>& xs);
std::vector<std::uint8_t> encode_token(ccpr::causal::SiteId target);
std::vector<std::uint8_t> encode_covered(const std::vector<std::uint8_t>& token,
                                         std::uint64_t wait_us);
/// kPing, kMetrics, kStoreStat, kEngineStat: the op byte alone.
std::vector<std::uint8_t> encode_admin(ccpr::server::ClientOp op);

/// Append `body` with its u32 length prefix to `out`.
void append_frame(std::vector<std::uint8_t>& out,
                  const std::vector<std::uint8_t>& body);

// ---- response decoders; nullopt = not ok or malformed ----

struct PutReply {
  ccpr::causal::WriteId id;
  std::uint64_t lamport = 0;
  std::vector<std::pair<ccpr::causal::SiteId, std::vector<std::uint8_t>>>
      tokens;
};
std::optional<PutReply> decode_put(const std::vector<std::uint8_t>& body);
std::optional<ccpr::causal::Value> decode_get(
    const std::vector<std::uint8_t>& body);
std::optional<std::vector<ccpr::causal::Value>> decode_snapshot(
    const std::vector<std::uint8_t>& body, std::size_t expected);
std::optional<std::vector<std::uint8_t>> decode_token(
    const std::vector<std::uint8_t>& body);
std::optional<bool> decode_covered(const std::vector<std::uint8_t>& body);
bool decode_ok(const std::vector<std::uint8_t>& body);
std::optional<std::string> decode_metrics(
    const std::vector<std::uint8_t>& body);
std::optional<ccpr::store::EngineStats> decode_store_stat(
    const std::vector<std::uint8_t>& body);

struct EngineStat {
  std::uint64_t shards = 0;
  std::uint64_t parked_envelopes = 0;
  std::uint64_t malformed_envelopes = 0;
  struct Row {
    std::uint64_t writes = 0, reads = 0, pending = 0, depth = 0, capacity = 0,
                  peak = 0, producer_waits = 0, parked_reads = 0,
                  covered_waiters = 0, enqueued_total = 0;
  };
  std::vector<Row> rows;
};
std::optional<EngineStat> decode_engine_stat(
    const std::vector<std::uint8_t>& body);

}  // namespace perfbench
