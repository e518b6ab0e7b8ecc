#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

const char* op_name(OpKind k) {
  switch (k) {
    case OpKind::kPut:
      return "put";
    case OpKind::kGet:
      return "get";
    case OpKind::kSnapshot:
      return "snapshot";
  }
  return "?";
}

SiteId writer_of(const ccpr::causal::ReplicaMap& rmap, VarId x) {
  const std::uint32_t n = rmap.sites();
  SiteId best = 0;
  std::uint32_t best_d = n;
  for (const SiteId r : rmap.replicas(x)) {
    const std::uint32_t d = (r + n - x % n) % n;
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  return best;
}

namespace {

std::vector<VarId> written_at(const ccpr::causal::ReplicaMap& rmap, SiteId s) {
  std::vector<VarId> out;
  for (VarId x = 0; x < rmap.vars(); ++x) {
    if (writer_of(rmap, x) == s) out.push_back(x);
  }
  return out;
}

std::vector<VarId> replicated_at(const ccpr::causal::ReplicaMap& rmap,
                                 SiteId s, bool want) {
  std::vector<VarId> out;
  for (VarId x = 0; x < rmap.vars(); ++x) {
    if (rmap.replicated_at(x, s) == want) out.push_back(x);
  }
  return out;
}

}  // namespace

WorkloadSpec make_workload(const std::string& name,
                           const ccpr::causal::ReplicaMap& rmap) {
  if (rmap.sites() != 3) {
    throw std::invalid_argument("workloads are defined for 3 sites");
  }
  WorkloadSpec w;
  w.name = name;
  if (name == "geo_write") {
    // One session per site writes the keys it owns and reads any key it
    // replicates; Zipf-skewed, so hot keys carry long causal histories.
    for (SiteId s = 0; s < 3; ++s) {
      SessionSpec ss;
      ss.site = s;
      ss.rate_per_s = 3000.0 / 3;
      ss.put_share = 0.48;
      ss.snapshot_share = 0.04;
      ss.put_keys = written_at(rmap, s);
      ss.get_keys = replicated_at(rmap, s, true);
      ss.zipf_theta = 0.99;
      w.sessions.push_back(std::move(ss));
    }
    w.observer = 1;
    w.probe_share = 0.5;
  } else if (name == "local_read") {
    // A read-mostly session at site 0 on its own keys. Sites 1 and 2 write
    // a trickle of their own keys: without traffic back to site 0, its
    // causal log could never be pruned and would grow all run.
    SessionSpec reader;
    reader.site = 0;
    reader.rate_per_s = 2000;
    reader.put_share = 0.04;
    reader.snapshot_share = 0.01;
    reader.put_keys = written_at(rmap, 0);
    reader.get_keys = replicated_at(rmap, 0, true);
    reader.snapshot_keys = 4;
    w.sessions.push_back(std::move(reader));
    for (SiteId s = 1; s < 3; ++s) {
      SessionSpec writer;
      writer.site = s;
      writer.rate_per_s = 20;
      writer.put_share = 1.0;
      writer.put_keys = written_at(rmap, s);
      writer.get_keys = replicated_at(rmap, s, true);
      w.sessions.push_back(std::move(writer));
    }
    w.observer = 1;
  } else if (name == "remote_read") {
    // Site 0 reads keys it does not replicate (every get is a RemoteFetch)
    // while sites 1 and 2 keep writing those keys, each its own half.
    const auto remote = replicated_at(rmap, 0, false);
    SessionSpec reader;
    reader.site = 0;
    reader.rate_per_s = 400;
    reader.get_keys = remote;
    w.sessions.push_back(std::move(reader));
    for (SiteId s = 1; s < 3; ++s) {
      SessionSpec writer;
      writer.site = s;
      writer.rate_per_s = 100;
      writer.put_share = 0.6;
      writer.snapshot_share = 0.4;
      for (std::size_t i = s - 1; i < remote.size(); i += 2) {
        writer.put_keys.push_back(remote[i]);
      }
      writer.get_keys = writer.put_keys;
      w.sessions.push_back(std::move(writer));
    }
    w.observer = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  w.observer_has.resize(rmap.vars());
  for (VarId x = 0; x < rmap.vars(); ++x) {
    w.observer_has[x] = rmap.replicated_at(x, w.observer);
  }
  return w;
}

std::vector<Op> generate_ops(const WorkloadSpec& spec, std::uint64_t seed,
                             double seconds) {
  std::vector<Op> ops;
  const auto nsess = static_cast<double>(spec.sessions.size());
  for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
    const SessionSpec& ss = spec.sessions[i];
    ccpr::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + i + 1);
    // A Zipf rank indexes a seeded permutation of the pool, so the hot
    // keys differ between sessions and seeds.
    std::vector<VarId> get_pool = ss.get_keys;
    std::vector<VarId> put_pool = ss.put_keys;
    std::shuffle(get_pool.begin(), get_pool.end(), rng);
    std::shuffle(put_pool.begin(), put_pool.end(), rng);
    std::unique_ptr<ccpr::util::ZipfSampler> zget, zput;
    if (ss.zipf_theta > 0) {
      if (!get_pool.empty()) {
        zget = std::make_unique<ccpr::util::ZipfSampler>(get_pool.size(),
                                                         ss.zipf_theta);
      }
      if (!put_pool.empty()) {
        zput = std::make_unique<ccpr::util::ZipfSampler>(put_pool.size(),
                                                         ss.zipf_theta);
      }
    }
    const auto pick = [&rng](const std::vector<VarId>& pool,
                             const ccpr::util::ZipfSampler* z) {
      return pool[z ? z->sample(rng) : rng.below(pool.size())];
    };
    const auto count = static_cast<std::uint64_t>(seconds * ss.rate_per_s);
    std::uint64_t seq = 0;
    for (std::uint64_t k = 0; k < count; ++k) {
      Op op;
      op.session = static_cast<std::uint32_t>(i + 1);
      op.sched_ns = static_cast<std::int64_t>(
          std::llround((static_cast<double>(k) + static_cast<double>(i) / nsess) *
                       1e9 / ss.rate_per_s));
      const double u = rng.uniform01();
      if (u < ss.put_share) {
        op.kind = OpKind::kPut;
        op.seq = ++seq;
        op.keys[0] = pick(put_pool, zput.get());
        op.probe = ss.site != spec.observer &&
                   spec.observer_has[op.keys[0]] &&
                   rng.chance(spec.probe_share);
      } else if (u < ss.put_share + ss.snapshot_share) {
        op.kind = OpKind::kSnapshot;
        op.nkeys = static_cast<std::uint8_t>(ss.snapshot_keys);
        for (std::uint8_t j = 0; j < op.nkeys; ++j) {
          // Distinct keys: the server rejects nothing for repeats, but a
          // repeated key would make the cut smaller than asked.
          VarId x;
          do {
            x = pick(get_pool, zget.get());
          } while (std::find(op.keys.begin(), op.keys.begin() + j, x) !=
                   op.keys.begin() + j);
          op.keys[j] = x;
        }
      } else {
        op.kind = OpKind::kGet;
        op.keys[0] = pick(get_pool, zget.get());
      }
      ops.push_back(op);
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.sched_ns < b.sched_ns;
  });
  return ops;
}

}  // namespace perfbench
