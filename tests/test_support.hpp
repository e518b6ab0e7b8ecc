// Shared helpers for protocol and integration tests.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "causal/sim_cluster.hpp"
#include "checker/causal_checker.hpp"
#include "net/wire.hpp"
#include "sim/latency.hpp"
#include "util/rng.hpp"

namespace ccpr::testing {

/// Cluster options with a fixed one-way delay on every channel.
inline causal::SimCluster::Options constant_latency(sim::SimTime us) {
  causal::SimCluster::Options o;
  o.latency = std::make_unique<sim::ConstantLatency>(us);
  return o;
}

/// Cluster options with an explicit n x n one-way delay matrix (row-major,
/// no jitter) — the tool for deterministic message-race scenarios.
inline causal::SimCluster::Options matrix_latency(
    std::uint32_t n, std::vector<sim::SimTime> base_us) {
  causal::SimCluster::Options o;
  o.latency = std::make_unique<sim::GeoLatency>(n, std::move(base_us), 0.0);
  return o;
}

/// Asserts the recorded history is causally consistent.
inline void expect_causal(const causal::SimCluster& cluster,
                          bool require_complete = true) {
  checker::CheckOptions opts;
  opts.require_complete_delivery = require_complete;
  const auto result = checker::check_causal_consistency(
      cluster.history(), cluster.replica_map(), opts);
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

/// The sequence of writes applied at `site`, in apply order.
inline std::vector<causal::WriteId> applies_at(
    const checker::HistoryRecorder& history, causal::SiteId site) {
  std::vector<causal::WriteId> out;
  for (const auto& a : history.applies()) {
    if (a.site == site) out.push_back(a.write);
  }
  return out;
}

/// Index of `id` in `seq`, or -1.
inline std::ptrdiff_t index_of(const std::vector<causal::WriteId>& seq,
                               causal::WriteId id) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i] == id) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

/// Asserts each site's meta_state_bytes() equals that of a fresh instance
/// restored from the site's serialize_state(). The restored total is built
/// only from the final per-variable records, so any drift in incrementally
/// maintained space accounting (say, a replaced record not subtracted)
/// shows up as a mismatch.
inline void expect_space_matches_restored(const causal::SimCluster& cluster,
                                          causal::Algorithm alg) {
  const auto& rmap = cluster.replica_map();
  for (causal::SiteId s = 0; s < rmap.sites(); ++s) {
    net::Encoder enc;
    cluster.site(s).serialize_state(enc);
    metrics::Metrics sink;
    causal::Services svc;
    svc.send = [](net::Message) {};
    svc.now = [] { return sim::SimTime{0}; };
    svc.metrics = &sink;
    const auto fresh = causal::make_protocol(alg, s, rmap, std::move(svc));
    net::Decoder dec(enc.buffer());
    ASSERT_TRUE(fresh->restore_state(dec)) << "site " << s;
    EXPECT_EQ(cluster.site(s).meta_state_bytes(), fresh->meta_state_bytes())
        << "site " << s;
  }
}

/// Drives a seeded cluster through writes that overwrite a few keys many
/// times, interleaved with local reads and remote fetches, and checks the
/// space accounting against restored state every 25 operations while
/// updates and fetches are still in flight, then once more at quiescence.
/// `also_check` runs at the same points.
inline void check_space_accounting_exact(
    causal::Algorithm alg, std::uint64_t seed,
    const std::function<void(const causal::SimCluster&)>& also_check = {}) {
  const auto check = [&](const causal::SimCluster& cluster) {
    expect_space_matches_restored(cluster, alg);
    if (also_check) also_check(cluster);
  };
  causal::SimCluster::Options opts;
  opts.latency_seed = seed;
  causal::SimCluster c(alg, causal::ReplicaMap::even(4, 6, 2),
                       std::move(opts));
  util::Rng rng(seed);
  const auto& rmap = c.replica_map();
  // A site's process issues nothing while its read is outstanding.
  std::vector<bool> reading(rmap.sites(), false);
  for (int op = 1; op <= 400; ++op) {
    const auto s = static_cast<causal::SiteId>(rng.below(rmap.sites()));
    const auto x = static_cast<causal::VarId>(rng.below(rmap.vars()));
    if (reading[s]) {
      // only advance time
    } else if (rng.uniform01() < 0.5) {
      c.write(s, x, "v" + std::to_string(op));
    } else {
      // A read of a variable s does not replicate is a RemoteFetch.
      reading[s] = true;
      c.read_async(s, x,
                   [&reading, s](const causal::Value&) { reading[s] = false; });
    }
    c.run_until(c.scheduler().now() +
                static_cast<sim::SimTime>(rng.below(20'000)));
    if (op % 25 == 0) check(c);
  }
  c.run();
  check(c);
  expect_causal(c);
}

}  // namespace ccpr::testing
