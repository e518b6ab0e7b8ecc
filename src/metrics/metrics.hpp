// Run-wide measurement surface shared by the transport, the protocols, and
// the benchmark harness.
//
// The paper's four evaluation metrics (Table I) map onto this struct:
//   message count  -> messages_total() (update + fetch request + response)
//   message size   -> control_bytes + payload_bytes, measured on the wire
//   time           -> write_op_ns / read_op_ns (protocol CPU, not sim time)
//   space          -> log_entries / meta_state_bytes gauges sampled by sites
//                     after every op; each protocol maintains its footprint
//                     incrementally (or in closed form), so a sample never
//                     walks the per-variable metadata and costs O(1) in q
// plus latency histograms in simulated time (apply delay, read latency).
#pragma once

#include <cstdint>

#include "util/stats.hpp"

namespace ccpr::metrics {

/// Last-value gauge with peak tracking: set() moves `current` both up and
/// down (it is a level, not a counter); only `peak` is monotone, recording
/// the high-water mark across all samples.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    current_ = v;
    if (v > peak_) peak_ = v;
  }
  void add_sample(std::uint64_t v) noexcept {
    set(v);
    stats_.add(static_cast<double>(v));
  }
  std::uint64_t current() const noexcept { return current_; }
  std::uint64_t peak() const noexcept { return peak_; }
  const util::RunningStats& samples() const noexcept { return stats_; }

  /// Cross-site merge: peak is the max over sites, the sample stream is the
  /// union, and `current` sums (total footprint of the cluster).
  void merge(const Gauge& other) noexcept {
    current_ += other.current_;
    if (other.peak_ > peak_) peak_ = other.peak_;
    stats_.merge(other.stats_);
  }

 private:
  std::uint64_t current_ = 0;
  std::uint64_t peak_ = 0;
  util::RunningStats stats_;
};

struct Metrics {
  // ---- message counts, by transport-level kind ----
  std::uint64_t update_msgs = 0;       ///< write-propagation multicasts
  std::uint64_t fetch_req_msgs = 0;    ///< RemoteFetch requests
  std::uint64_t fetch_resp_msgs = 0;   ///< RemoteFetch responses

  std::uint64_t messages_total() const noexcept {
    return update_msgs + fetch_req_msgs + fetch_resp_msgs;
  }

  // ---- message sizes (bytes on the wire) ----
  std::uint64_t control_bytes = 0;  ///< protocol metadata (clocks, logs, ids)
  std::uint64_t payload_bytes = 0;  ///< replicated value bytes

  std::uint64_t bytes_total() const noexcept {
    return control_bytes + payload_bytes;
  }

  // ---- operation counts at the store API ----
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t remote_reads = 0;  ///< reads served by RemoteFetch
  std::uint64_t fetch_retries = 0; ///< failovers to a secondary replica
  /// Suspected replicas demoted in fetch-target ranking (failure detector
  /// steered a remote read away from a likely-dead site).
  std::uint64_t fetch_suspect_skips = 0;

  // ---- simulated-time latencies (microseconds) ----
  util::Histogram apply_delay_us;   ///< receipt -> activation-predicate true
  util::Histogram read_latency_us;  ///< read issue -> value returned
  util::Histogram write_latency_us; ///< write issue -> local completion

  // ---- protocol CPU time (nanoseconds of real time per op) ----
  util::RunningStats write_op_ns;
  util::RunningStats read_op_ns;

  // ---- space: sampled by protocol instances ----
  Gauge log_entries;        ///< entries in the local causal log (per site)
  Gauge meta_state_bytes;   ///< footprint of all causal metadata (kept
                            ///< incrementally by the protocol, O(1) per op)
  std::uint64_t pending_peak = 0;  ///< max buffered (not-yet-applied) updates

  void note_pending(std::uint64_t depth) noexcept {
    if (depth > pending_peak) pending_peak = depth;
  }

  /// Mean control bytes per message; the paper's amortized "message size".
  double control_bytes_per_message() const noexcept {
    const auto m = messages_total();
    return m ? static_cast<double>(control_bytes) / static_cast<double>(m)
             : 0.0;
  }

  /// Accumulate another Metrics (per-site metrics into a cluster total).
  void merge(const Metrics& other) noexcept {
    update_msgs += other.update_msgs;
    fetch_req_msgs += other.fetch_req_msgs;
    fetch_resp_msgs += other.fetch_resp_msgs;
    control_bytes += other.control_bytes;
    payload_bytes += other.payload_bytes;
    writes += other.writes;
    reads += other.reads;
    remote_reads += other.remote_reads;
    fetch_retries += other.fetch_retries;
    fetch_suspect_skips += other.fetch_suspect_skips;
    apply_delay_us.merge(other.apply_delay_us);
    read_latency_us.merge(other.read_latency_us);
    write_latency_us.merge(other.write_latency_us);
    write_op_ns.merge(other.write_op_ns);
    read_op_ns.merge(other.read_op_ns);
    log_entries.merge(other.log_entries);
    meta_state_bytes.merge(other.meta_state_bytes);
    if (other.pending_peak > pending_peak) pending_peak = other.pending_peak;
  }
};

}  // namespace ccpr::metrics
