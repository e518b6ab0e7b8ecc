// Tests of the benchmark's own code: its request encoders against the
// server's decoders, its percentile and self-time arithmetic, and the
// open-loop schedule.
#include <gtest/gtest.h>

#include "causal/replica_map.hpp"
#include "driver.hpp"
#include "server/site_server.hpp"
#include "spans.hpp"
#include "wire.hpp"
#include "workload.hpp"

using namespace perfbench;
using ccpr::server::ClientOp;

namespace {

constexpr std::int64_t kSec = 1'000'000'000;

/// A one-site server on ephemeral ports, and a config that points at it.
struct OneSite {
  ccpr::server::ClusterConfig cfg = ccpr::server::ClusterConfig::loopback(1, 16, 1, 0);
  std::unique_ptr<ccpr::server::SiteServer> srv;
  OneSite() {
    srv = std::make_unique<ccpr::server::SiteServer>(cfg, 0);
    if (!srv->start()) throw std::runtime_error("server did not start");
    cfg.sites[0].client_port = srv->client_port();
  }
};

}  // namespace

TEST(Wire, ValueStampRoundTrips) {
  const Stamp s{3, 41, 7};
  const std::string v = make_value(s, 64);
  EXPECT_EQ(v.size(), 64u);
  ASSERT_TRUE(parse_value(v).has_value());
  EXPECT_EQ(*parse_value(v), s);
  std::string torn = v;
  torn[40] ^= 1;
  EXPECT_FALSE(parse_value(torn).has_value());
  EXPECT_FALSE(parse_value("short").has_value());
}

TEST(Wire, ServerDecodesEveryRequestTheGeneratorSends) {
  OneSite site;
  Driver d(site.cfg);
  const int c = d.open(0, 5 * kSec);
  ASSERT_GE(c, 0);
  EXPECT_TRUE(decode_ok(d.call(c, encode_admin(ClientOp::kPing), 5 * kSec)));

  const std::string v = make_value(Stamp{1, 1, 5}, 64);
  const auto put = decode_put(d.call(c, encode_put(5, v, true), 5 * kSec));
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->id.writer, 0u);
  EXPECT_GE(put->id.seq, 1u);

  const auto got = decode_get(d.call(c, encode_get(5), 5 * kSec));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data, v);

  const auto snap = decode_snapshot(d.call(c, encode_snapshot({5, 6}), 5 * kSec), 2);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ((*snap)[0].data, v);

  const auto tok = decode_token(d.call(c, encode_token(0), 5 * kSec));
  ASSERT_TRUE(tok.has_value());
  const auto covered =
      decode_covered(d.call(c, encode_covered(*tok, 100'000), 5 * kSec));
  ASSERT_TRUE(covered.has_value());
  EXPECT_TRUE(*covered);

  const auto text = decode_metrics(d.call(c, encode_admin(ClientOp::kMetrics), 5 * kSec));
  ASSERT_TRUE(text.has_value());
  EXPECT_NE(text->find("ccpr_writes_total"), std::string::npos);
  const auto store = decode_store_stat(d.call(c, encode_admin(ClientOp::kStoreStat), 5 * kSec));
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->keys, 1u);
  const auto eng = decode_engine_stat(d.call(c, encode_admin(ClientOp::kEngineStat), 5 * kSec));
  ASSERT_TRUE(eng.has_value());
  EXPECT_EQ(eng->shards, 1u);
  EXPECT_EQ(eng->rows.size(), 1u);

  // A request the server refuses decodes as a failure, not as a value.
  EXPECT_FALSE(decode_get(d.call(c, encode_get(999), 5 * kSec)).has_value());
  EXPECT_FALSE(d.io_error());
}

TEST(Wire, PipelinedRepliesMatchTheirRequests) {
  OneSite site;
  Driver d(site.cfg);
  const int c = d.open(0, 5 * kSec);
  ASSERT_GE(c, 0);
  std::vector<std::uint32_t> order;
  for (std::uint32_t x = 0; x < 16; ++x) {
    d.send(c, encode_put(x, make_value(Stamp{1, x + 1, x}, 64), false),
           [](std::vector<std::uint8_t>&& b, std::int64_t) {
             EXPECT_TRUE(decode_put(b).has_value());
           });
    d.send(c, encode_get(x), [&order](std::vector<std::uint8_t>&& b, std::int64_t) {
      const auto v = decode_get(b);
      ASSERT_TRUE(v.has_value());
      order.push_back(parse_value(v->data)->key);
    });
  }
  const std::int64_t deadline = mono_ns() + 5 * kSec;
  while (d.inflight() > 0 && mono_ns() < deadline) d.poll(kSec / 100);
  ASSERT_EQ(order.size(), 16u);
  for (std::uint32_t x = 0; x < 16; ++x) EXPECT_EQ(order[x], x);
}

TEST(Percentile, NearestRankOnFixedSets) {
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.0), 1);
  EXPECT_EQ(percentile(v, 0.5), 5);
  EXPECT_EQ(percentile(v, 0.9), 9);
  EXPECT_EQ(percentile(v, 0.99), 10);
  EXPECT_EQ(percentile(v, 1.0), 10);
  EXPECT_EQ(percentile({}, 0.5), 0);
  EXPECT_EQ(percentile({7}, 0.99), 7);
}

TEST(Percentile, SlicedMedianIgnoresAMinorityOfBadSlices) {
  // Ten 1-second slices of 50 samples each, four of them stalled at
  // 10000: the median of the slice medians still reads the healthy 101.
  std::vector<std::pair<std::int64_t, double>> tv;
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 50; ++i) {
      const double v = (s == 2 || s == 5 || s == 7 || s == 8) ? 10000 : 100 + i % 3;
      tv.emplace_back(s * kSec + i * (kSec / 50), v);
    }
  }
  EXPECT_EQ(sliced_median(tv, 0, 10 * kSec, 10, 40), 101);
  // Samples outside the window are ignored; too few samples for ten
  // slices of 40 gives fewer, larger slices.
  tv.emplace_back(-1, 1e9);
  tv.emplace_back(10 * kSec, 1e9);
  EXPECT_EQ(sliced_median(tv, 0, 10 * kSec, 10, 40), 101);
  std::vector<std::pair<std::int64_t, double>> few = {
      {0, 5}, {kSec, 7}, {2 * kSec, 9}};
  EXPECT_EQ(sliced_median(few, 0, 3 * kSec, 3, 40), 7);  // one slice
  EXPECT_EQ(sliced_median(few, 0, 3 * kSec, 3, 1), 7);   // three slices
  EXPECT_EQ(sliced_median({}, 0, kSec, 1, 1), 0);
}

TEST(SelfTime, SubtractsTheUnionOfClippedChildren) {
  std::vector<Span> s = {
      {1, 0, 1, "root", 0, 100},
      {2, 1, 1, "a", 10, 30},
      {3, 1, 1, "b", 20, 50},   // overlaps a: 10..50 counted once
      {4, 1, 1, "c", 60, 70},
      {5, 2, 1, "d", 15, 25},   // grandchild: only a's self time shrinks
      {6, 1, 1, "e", 90, 120},  // clipped to the root's end
  };
  const auto self = self_times(s);
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 30);
  const auto by = self_time_by_name(s);
  EXPECT_EQ(by.at("root").count, 1u);
  EXPECT_EQ(by.at("root").total_ns, 40);
}

TEST(OpenLoop, SchedulesAtTheOfferedRateWhateverTheReplies) {
  WorkloadSpec spec;
  for (int i = 0; i < 2; ++i) {
    SessionSpec ss;
    ss.rate_per_s = 100;
    ss.get_keys = {1, 2, 3};
    spec.sessions.push_back(ss);
  }
  const auto ops = generate_ops(spec, 9, 1.0);
  ASSERT_EQ(ops.size(), 200u);
  // Session 2 runs half a period behind session 1: 0, 5, 10, 15 ms ...
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].sched_ns, static_cast<std::int64_t>(i) * 5'000'000);
    EXPECT_EQ(ops[i].session, i % 2 + 1);
  }
  EXPECT_EQ(generate_ops(spec, 9, 1.0)[17].keys[0], ops[17].keys[0]);

  const std::int64_t t0 = 1'000'000'000;
  OpenLoop loop(ops, t0);
  EXPECT_EQ(loop.next_due(t0 - 1), -1);
  EXPECT_EQ(loop.next_due(t0), 0);
  EXPECT_EQ(loop.next_due(t0), -1);
  EXPECT_EQ(loop.next_deadline(), t0 + 5'000'000);
  // A generator that wakes 12 ms late sends the three overdue requests at
  // once; each is timed from its own scheduled send time.
  const std::int64_t late = t0 + 17'000'000;
  EXPECT_EQ(loop.next_due(late), 1);
  EXPECT_EQ(loop.next_due(late), 2);
  EXPECT_EQ(loop.next_due(late), 3);
  EXPECT_EQ(loop.next_due(late), -1);
  EXPECT_EQ(loop.lateness_ns(1, late), 12'000'000);
  EXPECT_EQ(loop.latency_ns(1, late + 300'000), 12'300'000);
  EXPECT_EQ(loop.latency_ns(3, late + 300'000), 2'300'000);
}

TEST(Workloads, EveryKeyHasOneWritingSite) {
  const auto rmap = ccpr::causal::ReplicaMap::even(3, 300, 2);
  for (const char* name : {"geo_write", "local_read", "remote_read"}) {
    const auto spec = make_workload(name, rmap);
    std::vector<int> writer(300, -1);
    for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
      const auto& ss = spec.sessions[i];
      for (const VarId x : ss.put_keys) {
        EXPECT_TRUE(rmap.replicated_at(x, ss.site)) << name;
        EXPECT_TRUE(writer[x] == -1 || writer[x] == static_cast<int>(ss.site))
            << name << " key " << x;
        writer[x] = static_cast<int>(ss.site);
      }
    }
    const auto ops = generate_ops(spec, 1, 2.0);
    std::size_t probes = 0;
    for (const Op& op : ops) {
      const SiteId s = spec.sessions[op.session - 1].site;
      if (op.kind == OpKind::kSnapshot) {
        for (std::size_t j = 0; j < op.nkeys; ++j) {
          EXPECT_TRUE(rmap.replicated_at(op.keys[j], s)) << name;
        }
      }
      if (op.probe) {
        ++probes;
        EXPECT_TRUE(rmap.replicated_at(op.keys[0], spec.observer)) << name;
        EXPECT_NE(s, spec.observer) << name;
      }
    }
    EXPECT_GT(probes, 0u) << name;
  }
}
