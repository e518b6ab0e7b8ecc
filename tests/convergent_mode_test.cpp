// Causal+ convergence mode (paper §V): LWW applies make replicas agree
// after quiescence while remaining causally consistent.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "checker/causal_checker.hpp"
#include "checker/convergence.hpp"
#include "test_support.hpp"
#include "workload/workload.hpp"

namespace ccpr::causal {
namespace {

using ccpr::testing::matrix_latency;

checker::ConvergenceReport audit(const SimCluster& c) {
  return checker::audit_convergence(
      c.replica_map(),
      [&c](SiteId s, VarId x) { return c.site(s).peek(x); });
}

TEST(ConvergentModeTest, ConcurrentWritesConverge) {
  // The divergence scenario from convergence_test, now with causal+ on:
  // both replicas must settle on the same (LWW) winner.
  auto opts = matrix_latency(2, {0, 30'000, 30'000, 0});
  opts.protocol.convergent = true;
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::full(2, 1),
               std::move(opts));
  c.write(0, 0, "from-0");
  c.write(1, 0, "from-1");  // concurrent, same LWW rank by seq -> writer 1
  c.run();
  EXPECT_EQ(c.site(0).peek(0).data, "from-1");
  EXPECT_EQ(c.site(1).peek(0).data, "from-1");
  EXPECT_TRUE(audit(c).converged());
}

TEST(ConvergentModeTest, WithoutModeTheSameRunDiverges) {
  auto opts = matrix_latency(2, {0, 30'000, 30'000, 0});
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::full(2, 1),
               std::move(opts));
  c.write(0, 0, "from-0");
  c.write(1, 0, "from-1");
  c.run();
  EXPECT_EQ(audit(c).divergent_vars, 1u);
}

TEST(ConvergentModeTest, CausallyOrderedWritesKeepLastValue) {
  // LWW must never override a causally newer value: s1 reads s0's write
  // then overwrites it; even though both ids grow, the causal order and the
  // LWW order agree here and the final value is s1's.
  auto opts = ccpr::testing::constant_latency(1'000);
  opts.protocol.convergent = true;
  SimCluster c(Algorithm::kOptTrack, ReplicaMap::full(2, 2),
               std::move(opts));
  c.write(0, 0, "v1");
  c.run();
  ASSERT_EQ(c.read(1, 0).data, "v1");
  c.write(1, 0, "v2");
  c.run();
  EXPECT_EQ(c.site(0).peek(0).data, "v2");
  EXPECT_EQ(c.site(1).peek(0).data, "v2");
  EXPECT_TRUE(audit(c).converged());
}

// gtest names each case after the raw bytes of its parameter, so the struct
// spells out its padding: every byte is initialised and the case names are
// the same on every build and run.
struct ConvergentSweepParam {
  Algorithm alg;
  std::uint8_t pad0[3] = {};
  std::uint32_t p;
  const char* name;
};
static_assert(std::has_unique_object_representations_v<ConvergentSweepParam>,
              "ConvergentSweepParam must have no implicit padding");

class ConvergentSweep
    : public ::testing::TestWithParam<ConvergentSweepParam> {};

TEST_P(ConvergentSweep, RandomWorkloadConvergesAndStaysCausal) {
  const auto& param = GetParam();
  const std::uint32_t n = 4, q = 10;
  const auto rmap = ReplicaMap::even(n, q, param.p);
  workload::WorkloadSpec spec;
  spec.ops_per_site = 150;
  spec.write_rate = 0.5;
  spec.seed = 77;
  const Program program = workload::generate_program(spec, rmap);

  SimCluster::Options opts;
  opts.latency = std::make_unique<sim::UniformLatency>(5'000, 50'000);
  opts.protocol.convergent = true;
  SimCluster cluster(param.alg, ReplicaMap::even(n, q, param.p),
                     std::move(opts));
  cluster.run_program(program);

  EXPECT_TRUE(audit(cluster).converged());
  // Causal consistency still holds; read legality is unaffected because an
  // apply that loses LWW only suppresses an already-overwritten value.
  const auto result = checker::check_causal_consistency(
      cluster.history(), cluster.replica_map());
  EXPECT_TRUE(result.ok);
  for (const auto& v : result.violations) ADD_FAILURE() << v;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, ConvergentSweep,
    ::testing::Values(
        ConvergentSweepParam{.alg = Algorithm::kOptTrack, .p = 2,
                             .name = "OptTrack_partial"},
        ConvergentSweepParam{.alg = Algorithm::kFullTrack, .p = 2,
                             .name = "FullTrack_partial"},
        ConvergentSweepParam{.alg = Algorithm::kOptTrackCRP, .p = 4,
                             .name = "CRP"},
        ConvergentSweepParam{.alg = Algorithm::kOptP, .p = 4,
                             .name = "OptP"}),
    [](const ::testing::TestParamInfo<ConvergentSweepParam>& param_info) {
      return param_info.param.name;
    });

}  // namespace
}  // namespace ccpr::causal
