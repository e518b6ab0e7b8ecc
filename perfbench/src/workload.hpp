// The benchmark's workloads: which sessions talk to which site, at what
// rate, with which operation mix and keys, and the open-loop schedule that
// turns them into one time-ordered stream of operations.
//
// Every key has exactly one writing site (writer_of), so replicas
// must converge once the run goes quiet and a read-your-writes check per
// connection is exact.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "causal/replica_map.hpp"

namespace perfbench {

using ccpr::causal::SiteId;
using ccpr::causal::VarId;

enum class OpKind : std::uint8_t { kPut = 0, kGet = 1, kSnapshot = 2 };
inline constexpr std::size_t kOpKinds = 3;
const char* op_name(OpKind k);

struct SessionSpec {
  SiteId site = 0;
  double rate_per_s = 0;
  double put_share = 0;
  double snapshot_share = 0;  ///< the rest are gets
  std::vector<VarId> put_keys;
  std::vector<VarId> get_keys;  ///< gets and snapshots draw from these
  double zipf_theta = 0;        ///< 0 = uniform over the pool
  std::uint32_t snapshot_keys = 2;
};

struct WorkloadSpec {
  std::string name;
  std::vector<SessionSpec> sessions;
  /// Site the visibility probes ask; puts of keys it replicates, from
  /// other sites, are probed with probability probe_share.
  SiteId observer = 0;
  double probe_share = 1.0;
  std::vector<bool> observer_has;  ///< per key: replicated at the observer
};

/// Size of every value the benchmark writes.
inline constexpr std::size_t kValueBytes = 64;

/// The one site that writes key x: the replica that follows x % sites
/// most closely on the ring (under ring placement, site x % sites).
SiteId writer_of(const ccpr::causal::ReplicaMap& rmap, VarId x);

/// The named workload over `rmap`; throws std::invalid_argument for an
/// unknown name.
WorkloadSpec make_workload(const std::string& name,
                           const ccpr::causal::ReplicaMap& rmap);

/// One scheduled operation. Session ids are 1-based (0 is the preload).
struct Op {
  std::int64_t sched_ns = 0;  ///< offset from the start of the schedule
  OpKind kind = OpKind::kGet;
  std::uint32_t session = 0;
  std::uint64_t seq = 0;  ///< puts: the session's put counter, from 1
  bool probe = false;     ///< puts: ask the observer for its visibility
  std::uint8_t nkeys = 1;
  std::array<VarId, 4> keys{};
};

/// The open-loop schedule: session i sends its k-th operation at
/// (k + i / sessions) / rate_i seconds, for `seconds` seconds, whatever the
/// replies do. The result is ordered by sched_ns; the same seed gives the
/// same stream.
std::vector<Op> generate_ops(const WorkloadSpec& spec, std::uint64_t seed,
                             double seconds);

/// Walks a schedule against a clock. The generator asks what is due, sends
/// it, and times every request from its scheduled send time, so a stalled
/// generator or server shows up as latency on every request it delayed.
class OpenLoop {
 public:
  OpenLoop(const std::vector<Op>& ops, std::int64_t t0_ns)
      : ops_(ops), t0_(t0_ns) {}

  /// Index of the next operation if it is due at `now_ns`, else -1.
  std::int64_t next_due(std::int64_t now_ns) {
    if (next_ >= ops_.size() || sched_abs(next_) > now_ns) return -1;
    return static_cast<std::int64_t>(next_++);
  }
  /// Absolute due time of the next unsent operation (max when done).
  std::int64_t next_deadline() const {
    return next_ < ops_.size() ? sched_abs(next_)
                               : std::numeric_limits<std::int64_t>::max();
  }
  bool done() const { return next_ >= ops_.size(); }
  std::int64_t sched_abs(std::size_t i) const { return t0_ + ops_[i].sched_ns; }
  /// Latency of request i answered at `reply_ns`, and how late it was sent.
  std::int64_t latency_ns(std::size_t i, std::int64_t reply_ns) const {
    return reply_ns - sched_abs(i);
  }
  std::int64_t lateness_ns(std::size_t i, std::int64_t send_ns) const {
    return send_ns - sched_abs(i);
  }

 private:
  const std::vector<Op>& ops_;
  std::int64_t t0_;
  std::size_t next_ = 0;
};

}  // namespace perfbench
