#include "checker/causal_checker.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"

namespace ccpr::checker {

using causal::SiteId;
using causal::VarId;
using causal::WriteId;

void CheckResult::fail(std::string msg) {
  ok = false;
  violations.push_back(std::move(msg));
}

namespace {

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// One op with its position in its process history (1-based) and its vector
/// timestamp under ->co.
struct TimedOp {
  OpRecord rec;
  std::uint32_t pos = 0;
  std::vector<std::uint64_t> vc;
};

struct WriteInfo {
  SiteId writer = causal::kNoSite;
  std::uint32_t pos = 0;      ///< position in writer's history
  VarId var = 0;
  std::size_t op_index = 0;   ///< index into the TimedOp array
  bool exists = false;
};

}  // namespace

CheckResult check_causal_consistency(const HistoryRecorder& history,
                                     const causal::ReplicaMap& rmap,
                                     const CheckOptions& opts) {
  CheckResult result;
  const std::vector<OpRecord> ops = history.ops();
  const std::vector<ApplyRecord> applies = history.applies();
  const std::uint32_t n = rmap.sites();

  auto fail = [&](std::string msg) {
    if (result.violations.size() < opts.max_violations) {
      result.fail(std::move(msg));
    } else {
      result.ok = false;
    }
  };

  // ---- index writes by identity ----
  std::unordered_map<std::uint64_t, WriteInfo> writes;  // key: writer<<40|seq
  const auto key = [](WriteId id) {
    return (static_cast<std::uint64_t>(id.writer) << 40) | id.seq;
  };

  std::vector<TimedOp> timed(ops.size());
  std::vector<std::uint32_t> op_count(n, 0);

  // Variables touched by a kWriteMaybe: a put whose response was lost may
  // have executed without ever being confirmed to the client, so a read (or
  // apply) naming an unknown write id on these variables is indeterminate,
  // not a violation.
  std::unordered_set<VarId> maybe_vars;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& rec = ops[i];
    CCPR_ASSERT(rec.process < n);
    timed[i].rec = rec;
    timed[i].pos = ++op_count[rec.process];
    if (rec.kind == OpRecord::Kind::kWriteMaybe) {
      maybe_vars.insert(rec.var);
      ++result.indeterminate_writes;
    }
    if (rec.kind == OpRecord::Kind::kWrite) {
      WriteInfo info{rec.process, timed[i].pos, rec.var, i, true};
      const auto [it, inserted] = writes.emplace(key(rec.write), info);
      if (!inserted) {
        fail(fmt("duplicate WriteId (writer=%u seq=%llu)", rec.write.writer,
                 static_cast<unsigned long long>(rec.write.seq)));
      }
      if (rec.write.writer != rec.process) {
        fail(fmt("write recorded at process %u but WriteId names writer %u",
                 rec.process, rec.write.writer));
      }
    }
  }

  // ---- vector timestamps under ->co (po ∪ ro, transitively closed) ----
  // The global log interleaves per-process histories in *recording* order.
  // With the protocols recording as they run (simulator, threaded runtime)
  // that order is already consistent with read-from, but a real-time
  // recorder (e.g. the TCP client library, one recorder shared by
  // concurrent sessions) can log a read before the cross-process write it
  // returned. So walk per-process cursors and only process a read once its
  // source write has a timestamp —
  // a topological order of po ∪ ro, which is acyclic for any honest
  // recording (a write cannot read-from-follow an op that program-order
  // precedes it).
  std::vector<std::vector<std::size_t>> by_proc(n);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    by_proc[ops[i].process].push_back(i);
  }
  std::vector<std::size_t> cursor(n, 0);
  std::vector<char> timestamped(ops.size(), 0);

  const auto assign_vc = [&](std::size_t i, bool with_ro) {
    TimedOp& op = timed[i];
    op.vc.assign(n, 0);
    const std::size_t at = cursor[op.rec.process];
    if (at > 0) op.vc = timed[by_proc[op.rec.process][at - 1]].vc;
    if (op.rec.kind == OpRecord::Kind::kRead && !op.rec.write.is_initial()) {
      const auto it = writes.find(key(op.rec.write));
      if (it == writes.end()) {
        if (maybe_vars.count(op.rec.var) != 0) {
          // Plausibly the value of an indeterminate put; no ro edge to
          // merge (the phantom write's causal past is unknowable), which
          // only weakens — never falsifies — the downstream checks.
          ++result.indeterminate_reads;
        } else {
          fail(fmt(
              "read integrity: process %u read var %u from unknown write "
              "(writer=%u seq=%llu)",
              op.rec.process, op.rec.var, op.rec.write.writer,
              static_cast<unsigned long long>(op.rec.write.seq)));
        }
      } else {
        if (it->second.var != op.rec.var) {
          fail(fmt("read integrity: process %u read var %u but write "
                   "(writer=%u seq=%llu) wrote var %u",
                   op.rec.process, op.rec.var, op.rec.write.writer,
                   static_cast<unsigned long long>(op.rec.write.seq),
                   it->second.var));
        }
        if (with_ro) {
          const std::vector<std::uint64_t>& wvc =
              timed[it->second.op_index].vc;
          for (std::uint32_t k = 0; k < n; ++k) {
            op.vc[k] = std::max(op.vc[k], wvc[k]);
          }
        }
      }
    }
    op.vc[op.rec.process] = op.pos;
    timestamped[i] = 1;
  };

  /// True when `rec`'s read-from source (if any) already has a timestamp.
  const auto ro_ready = [&](const OpRecord& rec) {
    if (rec.kind != OpRecord::Kind::kRead || rec.write.is_initial()) {
      return true;
    }
    const auto it = writes.find(key(rec.write));
    return it == writes.end() || timestamped[it->second.op_index] != 0;
  };

  std::size_t timed_count = 0;
  while (timed_count < ops.size()) {
    bool progress = false;
    for (SiteId p = 0; p < n; ++p) {
      while (cursor[p] < by_proc[p].size()) {
        const std::size_t i = by_proc[p][cursor[p]];
        if (!ro_ready(timed[i].rec)) break;
        assign_vc(i, /*with_ro=*/true);
        ++cursor[p];
        ++timed_count;
        progress = true;
      }
    }
    if (!progress) {
      // Only a corrupt history reaches here (a read-from edge pointing into
      // some process's program-order future). Report it, then finish the
      // timestamps without the offending edges so later checks stay in
      // bounds.
      fail("corrupt history: read-from cycle with program order "
           "(a read returned a write recorded later in its own process)");
      for (SiteId p = 0; p < n; ++p) {
        while (cursor[p] < by_proc[p].size()) {
          const std::size_t i = by_proc[p][cursor[p]];
          assign_vc(i, ro_ready(timed[i].rec));
          ++cursor[p];
          ++timed_count;
        }
      }
      break;
    }
  }
  result.ops_checked = ops.size();

  // w ->co o ?  (w a write by process p at position pos)
  const auto co_before = [&](const WriteInfo& w, const TimedOp& o) {
    const auto o_index =
        static_cast<std::size_t>(&o - timed.data());
    return o.vc[w.writer] >= w.pos && w.op_index != o_index;
  };

  // ---- (2) read legality ----
  // Group writes per variable for the causal-past scan.
  std::unordered_map<VarId, std::vector<const WriteInfo*>> writes_on;
  for (const auto& [k, info] : writes) {
    writes_on[info.var].push_back(&info);
  }

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const TimedOp& op = timed[i];
    if (op.rec.kind != OpRecord::Kind::kRead) continue;
    const WriteInfo* w0 = nullptr;
    if (!op.rec.write.is_initial()) {
      const auto it = writes.find(key(op.rec.write));
      if (it == writes.end()) continue;  // reported above
      w0 = &it->second;
    }
    const auto it = writes_on.find(op.rec.var);
    if (it == writes_on.end()) continue;
    for (const WriteInfo* wx : it->second) {
      if (w0 != nullptr && wx == w0) continue;
      if (!co_before(*wx, op)) continue;
      // wx is a write on this var in the read's causal past.
      if (w0 == nullptr) {
        fail(fmt("stale read: process %u read initial value of var %u but "
                 "write (writer=%u pos=%u) is in its causal past",
                 op.rec.process, op.rec.var, wx->writer, wx->pos));
        break;
      }
      // Violation iff the returned write was overwritten by wx in the causal
      // past: w0 ->co wx.
      const TimedOp& wx_op = timed[wx->op_index];
      if (wx_op.vc[w0->writer] >= w0->pos && wx->op_index != w0->op_index) {
        fail(fmt("stale read: process %u read var %u from (writer=%u "
                 "seq=%llu) but causally later write (writer=%u pos=%u) "
                 "precedes the read",
                 op.rec.process, op.rec.var, op.rec.write.writer,
                 static_cast<unsigned long long>(op.rec.write.seq),
                 wx->writer, wx->pos));
        break;
      }
    }
  }

  // ---- (1) per-site apply order ----
  // destined[p][s]: positions (in p's history) of p's writes destined to s,
  // ascending (program order).
  std::vector<std::vector<std::vector<std::uint32_t>>> destined(
      n, std::vector<std::vector<std::uint32_t>>(n));
  {
    // Collect in op order so the position lists are already sorted.
    for (const TimedOp& op : timed) {
      if (op.rec.kind != OpRecord::Kind::kWrite) continue;
      for (const SiteId s : rmap.replicas(op.rec.var)) {
        destined[op.rec.process][s].push_back(op.pos);
      }
    }
  }

  std::vector<std::vector<std::uint64_t>> applied_count(
      n, std::vector<std::uint64_t>(n, 0));

  for (const ApplyRecord& ar : applies) {
    ++result.applies_checked;
    CCPR_ASSERT(ar.site < n);
    const auto it = writes.find(key(ar.write));
    if (it == writes.end()) {
      if (maybe_vars.count(ar.var) != 0) {
        ++result.indeterminate_applies;
      } else {
        fail(fmt("apply of unknown write (writer=%u seq=%llu) at site %u",
                 ar.write.writer,
                 static_cast<unsigned long long>(ar.write.seq), ar.site));
      }
      continue;
    }
    const WriteInfo& w = it->second;
    if (w.var != ar.var) {
      fail(fmt("apply at site %u names var %u but the write wrote var %u",
               ar.site, ar.var, w.var));
    }
    if (!rmap.replicated_at(w.var, ar.site)) {
      fail(fmt("write to var %u applied at non-replica site %u", w.var,
               ar.site));
      continue;
    }
    const auto& expected = destined[w.writer][ar.site];
    auto& done = applied_count[w.writer][ar.site];
    if (done >= expected.size() || expected[done] != w.pos) {
      fail(fmt("per-writer apply order broken at site %u: write by %u at "
               "position %u applied out of FIFO order (slot %llu)",
               ar.site, w.writer, w.pos,
               static_cast<unsigned long long>(done)));
      continue;
    }
    // Causal obligation: every write destined to this site in the causal
    // past of w must already be applied here.
    const TimedOp& wop = timed[w.op_index];
    for (std::uint32_t p = 0; p < n; ++p) {
      const auto& list = destined[p][ar.site];
      auto needed = static_cast<std::uint64_t>(
          std::upper_bound(list.begin(), list.end(), wop.vc[p]) -
          list.begin());
      if (p == w.writer) --needed;  // w itself
      if (applied_count[p][ar.site] < needed) {
        fail(fmt("causal apply violation at site %u: write (writer=%u "
                 "pos=%u) applied before %llu/%llu causally preceding "
                 "writes from process %u",
                 ar.site, w.writer, w.pos,
                 static_cast<unsigned long long>(applied_count[p][ar.site]),
                 static_cast<unsigned long long>(needed), p));
        break;
      }
    }
    ++done;
  }

  if (opts.require_complete_delivery) {
    for (std::uint32_t p = 0; p < n && result.violations.size() <
                                           opts.max_violations;
         ++p) {
      for (std::uint32_t s = 0; s < n; ++s) {
        if (applied_count[p][s] != destined[p][s].size()) {
          fail(fmt("lost update: site %u applied %llu of %llu writes from "
                   "process %u",
                   s,
                   static_cast<unsigned long long>(applied_count[p][s]),
                   static_cast<unsigned long long>(destined[p][s].size()),
                   p));
        }
      }
    }
  }

  return result;
}

}  // namespace ccpr::checker
