#include "server/metrics_text.hpp"

#include <sstream>

namespace ccpr::server {

namespace {

/// One "# HELP/# TYPE" preamble plus a sample line with a site label.
class Renderer {
 public:
  explicit Renderer(causal::SiteId site) : site_(site) {}

  void counter(const char* name, const char* help, std::uint64_t v) {
    preamble(name, help, "counter");
    sample(name, "", static_cast<double>(v));
  }
  void gauge(const char* name, const char* help, double v) {
    preamble(name, help, "gauge");
    sample(name, "", v);
  }
  /// Prometheus summary without a _sum timeline: we expose the quantiles
  /// the bench cares about plus _count/_sum from the histogram.
  void summary(const char* name, const char* help,
               const util::Histogram& h) {
    preamble(name, help, "summary");
    sample(name, R"(quantile="0.5")", h.percentile(0.5));
    sample(name, R"(quantile="0.9")", h.percentile(0.9));
    sample(name, R"(quantile="0.99")", h.percentile(0.99));
    sample((std::string(name) + "_sum").c_str(), "",
           h.mean() * static_cast<double>(h.count()));
    sample((std::string(name) + "_count").c_str(), "",
           static_cast<double>(h.count()));
  }
  void labeled(const char* name, const std::string& labels, double v) {
    sample(name, labels, v);
  }
  void preamble(const char* name, const char* help, const char* type) {
    out_ << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' '
         << type << '\n';
  }

  std::string str() const { return out_.str(); }

 private:
  void sample(const char* name, const std::string& extra_labels, double v) {
    out_ << name << "{site=\"" << site_ << '"';
    if (!extra_labels.empty()) out_ << ',' << extra_labels;
    out_ << "} ";
    // Integral values print without a fraction; Prometheus accepts both.
    if (v == static_cast<double>(static_cast<std::uint64_t>(v >= 0 ? v : 0)) &&
        v >= 0) {
      out_ << static_cast<std::uint64_t>(v);
    } else {
      out_ << v;
    }
    out_ << '\n';
  }

  causal::SiteId site_;
  std::ostringstream out_;
};

}  // namespace

std::string render_metrics_text(
    causal::SiteId site, const metrics::Metrics& merged,
    const std::vector<ProtocolEngine::QueueStats>& engine_shards,
    const std::vector<net::TcpTransport::PeerStats>& peers,
    std::uint64_t pending_updates, const Durability::Stats& durability,
    const std::vector<std::string>& site_regions, const HealthStats& health,
    const store::EngineStats& engine_stats, std::uint64_t parked_envelopes,
    std::uint64_t malformed_envelopes, const net::Reactor::Stats& clients) {
  // Shard-aggregated view feeds the classic unlabeled series so existing
  // dashboards keep working whatever the shard count is.
  ProtocolEngine::QueueStats engine;
  for (const auto& s : engine_shards) engine += s;
  Renderer r(site);
  // peer="<id>" plus region="<peer's region>" when the cluster is geo.
  const auto peer_label = [&site_regions](causal::SiteId peer) {
    std::string l = "peer=\"" + std::to_string(peer) + '"';
    if (peer < site_regions.size()) {
      l += ",region=\"" + site_regions[peer] + '"';
    }
    return l;
  };
  if (site < site_regions.size()) {
    r.preamble("ccpr_site_region",
               "Constant 1; the region label names this site's region",
               "gauge");
    r.labeled("ccpr_site_region", "region=\"" + site_regions[site] + '"',
              1.0);
  }

  // ---- protocol + transport counters (the paper's Table I metrics) ----
  r.counter("ccpr_update_msgs_total", "Write-propagation messages",
            merged.update_msgs);
  r.counter("ccpr_fetch_req_msgs_total", "RemoteFetch requests",
            merged.fetch_req_msgs);
  r.counter("ccpr_fetch_resp_msgs_total", "RemoteFetch responses",
            merged.fetch_resp_msgs);
  r.counter("ccpr_control_bytes_total", "Causal-metadata bytes on the wire",
            merged.control_bytes);
  r.counter("ccpr_payload_bytes_total", "Replicated value bytes on the wire",
            merged.payload_bytes);
  r.counter("ccpr_writes_total", "Store-level write operations",
            merged.writes);
  r.counter("ccpr_reads_total", "Store-level read operations", merged.reads);
  r.counter("ccpr_remote_reads_total", "Reads served via RemoteFetch",
            merged.remote_reads);
  r.counter("ccpr_fetch_retries_total", "RemoteFetch failovers",
            merged.fetch_retries);
  r.counter("ccpr_fetch_suspect_skips_total",
            "Suspected replicas demoted in fetch-target ranking",
            merged.fetch_suspect_skips);
  r.counter("ccpr_reads_fast_failed_total",
            "Remote reads failed fast: every replica suspected",
            health.reads_fast_failed);
  r.gauge("ccpr_pending_updates", "Updates buffered awaiting activation",
          static_cast<double>(pending_updates));
  r.gauge("ccpr_log_entries", "Entries in the local causal log",
          static_cast<double>(merged.log_entries.current()));
  r.gauge("ccpr_meta_state_bytes", "Serialized causal-metadata footprint",
          static_cast<double>(merged.meta_state_bytes.current()));
  r.summary("ccpr_read_latency_us", "Read issue to value returned (us)",
            merged.read_latency_us);
  r.summary("ccpr_apply_delay_us", "Update receipt to activation (us)",
            merged.apply_delay_us);

  // ---- protocol-engine queue ----
  r.gauge("ccpr_engine_queue_depth", "Commands waiting for the apply thread",
          static_cast<double>(engine.depth));
  r.gauge("ccpr_engine_queue_capacity", "Engine command-queue bound",
          static_cast<double>(engine.capacity));
  r.gauge("ccpr_engine_queue_peak_depth", "Deepest the command queue has been",
          static_cast<double>(engine.peak_depth));
  r.counter("ccpr_engine_producer_waits_total",
            "Enqueues that blocked on the queue bound", engine.producer_waits);
  r.gauge("ccpr_engine_parked_reads",
          "Reads parked on an in-flight RemoteFetch",
          static_cast<double>(engine.parked_reads));
  r.gauge("ccpr_engine_covered_waiters",
          "covered_by waits parked for coverage or deadline",
          static_cast<double>(engine.covered_waiters));
  r.preamble("ccpr_engine_commands_total",
             "Commands admitted to the apply thread, by kind", "counter");
  for (std::size_t k = 0; k < ProtocolEngine::kCmdKinds; ++k) {
    r.labeled("ccpr_engine_commands_total",
              std::string("kind=\"") +
                  ProtocolEngine::kind_name(
                      static_cast<ProtocolEngine::CmdKind>(k)) +
                  '"',
              static_cast<double>(engine.enqueued[k]));
  }

  // ---- per-shard engine view (sharded sites only) ----
  r.gauge("ccpr_engine_shards", "Engine shards on this site",
          static_cast<double>(engine_shards.size()));
  if (engine_shards.size() > 1) {
    const auto shard_label = [](std::size_t k) {
      return "shard=\"" + std::to_string(k) + '"';
    };
    r.preamble("ccpr_engine_shard_queue_depth",
               "Commands waiting for one shard's apply thread", "gauge");
    for (std::size_t k = 0; k < engine_shards.size(); ++k) {
      r.labeled("ccpr_engine_shard_queue_depth", shard_label(k),
                static_cast<double>(engine_shards[k].depth));
    }
    r.preamble("ccpr_engine_shard_commands_total",
               "Commands admitted to one shard's apply thread", "counter");
    for (std::size_t k = 0; k < engine_shards.size(); ++k) {
      r.labeled("ccpr_engine_shard_commands_total", shard_label(k),
                static_cast<double>(engine_shards[k].enqueued_total()));
    }
    r.preamble("ccpr_engine_shard_producer_waits_total",
               "Enqueues that blocked on one shard's queue bound", "counter");
    for (std::size_t k = 0; k < engine_shards.size(); ++k) {
      r.labeled("ccpr_engine_shard_producer_waits_total", shard_label(k),
                static_cast<double>(engine_shards[k].producer_waits));
    }
    r.preamble("ccpr_engine_shard_parked_reads",
               "Reads parked on an in-flight RemoteFetch, per shard",
               "gauge");
    for (std::size_t k = 0; k < engine_shards.size(); ++k) {
      r.labeled("ccpr_engine_shard_parked_reads", shard_label(k),
                static_cast<double>(engine_shards[k].parked_reads));
    }
    r.preamble("ccpr_engine_shard_covered_waiters",
               "Parked covered_by waits, per shard", "gauge");
    for (std::size_t k = 0; k < engine_shards.size(); ++k) {
      r.labeled("ccpr_engine_shard_covered_waiters", shard_label(k),
                static_cast<double>(engine_shards[k].covered_waiters));
    }
    r.gauge("ccpr_shard_parked_envelopes",
            "Peer envelopes parked on unmet cross-shard tokens",
            static_cast<double>(parked_envelopes));
    r.counter("ccpr_shard_malformed_envelopes_total",
              "Peer messages dropped by envelope admission",
              malformed_envelopes);
  }

  // ---- client connections (epoll reactor) ----
  r.gauge("ccpr_client_conns_active", "Client connections open right now",
          static_cast<double>(clients.active));
  r.counter("ccpr_client_conns_accepted_total", "Client connections accepted",
            clients.accepted);
  r.counter("ccpr_client_conns_dropped_total",
            "Client connections closed on a protocol or socket error",
            clients.conns_dropped);
  r.counter("ccpr_client_frames_in_total", "Client request frames decoded",
            clients.frames_in);
  r.counter("ccpr_client_frames_out_total",
            "Client response frames released in request order",
            clients.frames_out);
  r.counter("ccpr_client_flushes_total",
            "writev calls writing client responses", clients.flushes);

  // ---- durability: WAL + anti-entropy catch-up ----
  r.gauge("ccpr_wal_enabled", "1 when this site runs with a write-ahead log",
          durability.wal_enabled ? 1.0 : 0.0);
  r.counter("ccpr_wal_records_total", "Records appended to the WAL",
            durability.wal.records_appended);
  r.counter("ccpr_wal_bytes_total", "Bytes appended to the WAL (framed)",
            durability.wal.bytes_appended);
  r.counter("ccpr_wal_fsyncs_total", "fsync calls issued by the WAL",
            durability.wal.fsyncs);
  r.counter("ccpr_wal_checkpoints_total", "WAL generation rotations",
            durability.wal.checkpoints);
  r.counter("ccpr_wal_recovered_records",
            "Records replayed from the WAL at the last startup",
            durability.wal.recovered_records);
  r.counter("ccpr_wal_truncated_bytes",
            "Torn-tail bytes discarded at the last startup",
            durability.wal.truncated_bytes);
  r.counter("ccpr_catchup_updates_total",
            "Updates applied under an announced catch-up target",
            durability.catchup_updates);
  r.counter("ccpr_catchup_resent_total",
            "Retained updates re-sent to a catching-up peer",
            durability.catchup_resent);
  r.counter("ccpr_catchup_requests_sent_total",
            "Watermark announcements sent", durability.catchup_reqs_sent);
  r.counter("ccpr_catchup_requests_recv_total",
            "Watermark announcements received", durability.catchup_reqs_recv);
  r.counter("ccpr_catchup_skipped_updates_total",
            "Updates fast-forwarded past because retention aged them out",
            durability.skipped);
  r.counter("ccpr_chan_dup_drops_total",
            "Channel duplicates dropped at the inbound watermark",
            durability.dup_drops);
  r.counter("ccpr_chan_gap_drops_total",
            "Out-of-order updates dropped pending catch-up",
            durability.gap_drops);
  r.gauge("ccpr_catchup_retained_msgs",
          "Stamped updates retained for catch-up across all peers",
          static_cast<double>(durability.retained_msgs));

  // ---- value-store engine ----
  r.preamble("ccpr_store_engine_info",
             "Constant 1; the engine label names the value-store engine",
             "gauge");
  r.labeled("ccpr_store_engine_info",
            std::string("engine=\"") +
                store::engine_kind_token(engine_stats.kind) + '"',
            1.0);
  r.gauge("ccpr_store_keys", "Keys resident in the value store",
          static_cast<double>(engine_stats.keys));
  r.gauge("ccpr_store_resident_bytes",
          "Estimated RAM attributable to the value store",
          static_cast<double>(engine_stats.resident_bytes));
  r.gauge("ccpr_store_index_slots", "Allocated index slots across shards",
          static_cast<double>(engine_stats.index_slots));
  r.counter("ccpr_store_lookups_total", "Index lookups (gets and puts)",
            engine_stats.lookups);
  r.counter("ccpr_store_probes_total",
            "Index slots inspected across all lookups", engine_stats.probes);
  r.gauge("ccpr_store_mean_probe_length",
          "Lifetime mean probes per lookup", engine_stats.mean_probe_length());
  r.gauge("ccpr_store_spilled_keys", "Keys currently spilled to disk",
          static_cast<double>(engine_stats.spilled_keys));
  r.gauge("ccpr_store_spill_segment_bytes",
          "Size of the on-disk spill segment",
          static_cast<double>(engine_stats.spill_segment_bytes));
  r.counter("ccpr_store_spill_reads_total",
            "Values promoted back from the spill segment",
            engine_stats.spill_reads);
  r.counter("ccpr_store_spill_writes_total",
            "Values demoted to the spill segment", engine_stats.spill_writes);
  r.counter("ccpr_store_compactions_total",
            "Arena/segment compaction passes", engine_stats.compactions);

  // ---- per-peer wire stats ----
  r.preamble("ccpr_peer_msgs_sent_total", "Messages sent to a peer",
             "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_msgs_sent_total", peer_label(p.site),
              static_cast<double>(p.msgs_sent));
  }
  r.preamble("ccpr_peer_msgs_recv_total", "Messages received from a peer",
             "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_msgs_recv_total", peer_label(p.site),
              static_cast<double>(p.msgs_recv));
  }
  r.preamble("ccpr_peer_reads_total",
             "read calls that took inbound bytes from a peer", "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_reads_total", peer_label(p.site),
              static_cast<double>(p.reads));
  }
  r.preamble("ccpr_peer_batches_sent_total", "writev flushes toward a peer",
             "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_batches_sent_total", peer_label(p.site),
              static_cast<double>(p.batches_sent));
  }
  r.preamble("ccpr_peer_overflow_drops_total",
             "Oldest queued messages dropped at the per-peer queue cap",
             "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_overflow_drops_total", peer_label(p.site),
              static_cast<double>(p.overflow_drops));
  }
  r.preamble("ccpr_peer_queue_depth", "Messages queued toward a peer",
             "gauge");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_queue_depth", peer_label(p.site),
              static_cast<double>(p.queued));
  }
  r.preamble("ccpr_peer_connected",
             "1 when the outbound connection to a peer is established",
             "gauge");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_connected", peer_label(p.site),
              p.connected ? 1.0 : 0.0);
  }

  // ---- chaos injection (zero everywhere unless rules are installed) ----
  r.preamble("ccpr_peer_chaos_active",
             "1 when a chaos rule is installed toward a peer "
             "(2 when it is a partition)",
             "gauge");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_chaos_active", peer_label(p.site),
              p.chaos_partitioned ? 2.0 : (p.chaos_active ? 1.0 : 0.0));
  }
  r.preamble("ccpr_peer_chaos_drops_total",
             "Outbound messages dropped by chaos injection", "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_chaos_drops_total", peer_label(p.site),
              static_cast<double>(p.chaos_drops));
  }
  r.preamble("ccpr_peer_chaos_rx_drops_total",
             "Inbound frames discarded while chaos-partitioned", "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_chaos_rx_drops_total", peer_label(p.site),
              static_cast<double>(p.chaos_rx_drops));
  }
  r.preamble("ccpr_peer_chaos_delayed_total",
             "Outbound messages held past their natural send time",
             "counter");
  for (const auto& p : peers) {
    r.labeled("ccpr_peer_chaos_delayed_total", peer_label(p.site),
              static_cast<double>(p.chaos_delayed));
  }

  // ---- failure detector ----
  r.preamble("ccpr_peer_suspected",
             "1 while the failure detector believes a peer unreachable",
             "gauge");
  for (const auto& p : health.peers) {
    r.labeled("ccpr_peer_suspected", peer_label(p.site),
              p.suspected ? 1.0 : 0.0);
  }
  r.preamble("ccpr_peer_rtt_ewma_us",
             "Exponentially-weighted heartbeat round-trip time", "gauge");
  for (const auto& p : health.peers) {
    r.labeled("ccpr_peer_rtt_ewma_us", peer_label(p.site),
              static_cast<double>(p.rtt_ewma_us));
  }
  r.preamble("ccpr_peer_suspect_events_total",
             "Alive-to-suspected transitions observed for a peer", "counter");
  for (const auto& p : health.peers) {
    r.labeled("ccpr_peer_suspect_events_total", peer_label(p.site),
              static_cast<double>(p.suspect_events));
  }
  r.preamble("ccpr_peer_heartbeats_sent_total",
             "Failure-detector pings sent to a peer", "counter");
  for (const auto& p : health.peers) {
    r.labeled("ccpr_peer_heartbeats_sent_total", peer_label(p.site),
              static_cast<double>(p.heartbeats_sent));
  }
  r.preamble("ccpr_peer_heartbeat_acks_total",
             "Failure-detector acks received from a peer", "counter");
  for (const auto& p : health.peers) {
    r.labeled("ccpr_peer_heartbeat_acks_total", peer_label(p.site),
              static_cast<double>(p.acks_received));
  }

  return r.str();
}

}  // namespace ccpr::server
