// Prometheus text exposition (version 0.0.4) for one site server.
//
// One function renders everything a scrape wants: the merged
// protocol+transport metrics::Metrics, the protocol-engine queue stats, and
// the per-peer wire counters. All series carry a `site` label so outputs
// from several sites concatenate into one cluster view; per-peer series add
// a `peer` label, plus a `region` label when the cluster has a geo
// topology (so dashboards can split intra- from cross-region traffic).
// Only the plain-text renderer lives here — the server ships the result
// over the client protocol (kMetrics), it does not speak HTTP.
#pragma once

#include <string>
#include <vector>

#include "causal/types.hpp"
#include "metrics/metrics.hpp"
#include "net/reactor.hpp"
#include "net/tcp_transport.hpp"
#include "server/durability.hpp"
#include "server/protocol_engine.hpp"

namespace ccpr::server {

/// Per-peer failure-detector view for the scrape, snapshotted by the site
/// server from its heartbeat state.
struct HealthStats {
  struct Peer {
    causal::SiteId site = 0;
    bool suspected = false;
    std::uint64_t rtt_ewma_us = 0;
    std::uint64_t suspect_events = 0;   ///< alive->suspected transitions
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t acks_received = 0;
  };
  std::vector<Peer> peers;
  /// Remote reads failed fast because every replica was suspected.
  std::uint64_t reads_fast_failed = 0;
};

/// `site_regions` maps site id -> region name (empty when the cluster has
/// no topology). When present it adds `region=` labels to every
/// `ccpr_peer_*` series and a `ccpr_site_region` info gauge for this site.
/// `engine_stats` is the value-store engine's counter snapshot, rendered as
/// the ccpr_store_engine_* family (the engine kind becomes a label).
///
/// `engine_shards` holds one QueueStats per engine shard (a single-element
/// vector on an unsharded site). The classic unlabeled ccpr_engine_* series
/// stay and carry shard-aggregated values; when the site runs more than one
/// shard every queue/parked gauge is additionally emitted with a
/// shard="<k>" label, and the cross-shard envelope admission exports
/// `parked_envelopes` / `malformed_envelopes`.
///
/// `clients` is the client-facing reactor's connection counters, rendered
/// as the ccpr_client_conns_* family.
std::string render_metrics_text(
    causal::SiteId site, const metrics::Metrics& merged,
    const std::vector<ProtocolEngine::QueueStats>& engine_shards,
    const std::vector<net::TcpTransport::PeerStats>& peers,
    std::uint64_t pending_updates, const Durability::Stats& durability,
    const std::vector<std::string>& site_regions = {},
    const HealthStats& health = {},
    const store::EngineStats& engine_stats = {},
    std::uint64_t parked_envelopes = 0,
    std::uint64_t malformed_envelopes = 0,
    const net::Reactor::Stats& clients = {});

}  // namespace ccpr::server
