// perfbench_loadgen: the benchmark's load generator and layer probe.
//
//   perfbench_loadgen setup --config=<conf>
//       Wait until every site answers a ping, put the initial value of
//       every key at its writing site, and wait until every site covers
//       every other (the cluster is quiet and fully preloaded).
//   perfbench_loadgen run --config=<conf> --workload=<name> --seed=<n>
//       --seconds=<s> --trace=0|1 --out=<json> [--server-pids=<pid,...>]
//       [--spans=<json> --data-dir=<dir>]
//       Drive the workload open-loop after a 3 s warm-up, check every reply, scrape the server
//       counters at both ends of the timed window and write the raw
//       results to --out. With --trace=1 it also records spans, times a
//       closed-loop client::Client session and replays the same operation
//       stream through each layer in-process (layers.cpp).
//
// One thread drives every connection; the number of connections never
// exceeds the number of processors.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/client.hpp"
#include "driver.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "wire.hpp"
#include "workload.hpp"

using namespace perfbench;
using ccpr::server::ClientOp;
using ccpr::util::Json;

namespace {

constexpr std::int64_t kSec = 1'000'000'000;
/// Seconds of traffic sent and checked before the timed window.
constexpr double kWarmupS = 3;

/// Failure counts by reason; every failed check lands here.
struct Failures {
  std::map<std::string, std::uint64_t> by_reason;
  std::uint64_t total = 0;
  void add(const std::string& reason, std::uint64_t n = 1) {
    if (n == 0) return;
    by_reason[reason] += n;
    total += n;
  }
  Json json() const {
    Json o = Json::object();
    for (const auto& [k, v] : by_reason) o[k] = v;
    return o;
  }
};

Json summary(const std::vector<double>& v) {
  Json o = Json::object();
  o["count"] = static_cast<std::uint64_t>(v.size());
  o["p50"] = percentile(v, 0.5);
  o["p90"] = percentile(v, 0.9);
  o["p99"] = percentile(v, 0.99);
  return o;
}

/// summary() plus the median of 1-second-slice medians over the window.
Json timed_summary(const std::vector<std::pair<std::int64_t, double>>& tv,
                   std::int64_t start, std::int64_t end) {
  std::vector<double> v;
  for (const auto& p : tv) v.push_back(p.second);
  Json o = summary(v);
  const auto secs = static_cast<std::size_t>((end - start) / kSec);
  o["p50_sliced"] = sliced_median(tv, start, end - start, secs, 40);
  // Per-second medians, to see drift across the window.
  Json per_s = Json::array();
  for (std::size_t k = 0; k < secs; ++k) {
    const std::int64_t a = start + static_cast<std::int64_t>(k) * kSec;
    std::vector<double> sl;
    for (const auto& [t, x] : tv) {
      if (t >= a && t < a + kSec) sl.push_back(x);
    }
    per_s.push_back(percentile(std::move(sl), 0.5));
  }
  o["p50_per_s"] = std::move(per_s);
  return o;
}

std::uint32_t nproc() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::uint32_t>(n) : 1;
}

/// Wait until the cluster is quiet: for every ordered pair of sites (a, b),
/// b covers a's coverage token for b. False if any pair fails.
bool barrier(Driver& d, const std::vector<int>& site_conn,
             std::int64_t timeout_ns) {
  for (std::size_t a = 0; a < site_conn.size(); ++a) {
    for (std::size_t b = 0; b < site_conn.size(); ++b) {
      if (a == b) continue;
      const auto tok = decode_token(d.call(
          site_conn[a], encode_token(static_cast<SiteId>(b)), timeout_ns));
      if (!tok) return false;
      const auto covered = decode_covered(d.call(
          site_conn[b],
          encode_covered(*tok, static_cast<std::uint64_t>(timeout_ns / 1000)),
          timeout_ns + kSec));
      if (!covered || !*covered) return false;
    }
  }
  return true;
}

/// One connection per site, for setup and admin requests.
bool connect_all(Driver& d, std::uint32_t sites, std::int64_t timeout_ns,
                 std::vector<int>* site_conn) {
  site_conn->assign(sites, -1);
  for (SiteId s = 0; s < sites; ++s) {
    int c = d.find(s);
    if (c < 0) c = d.open(s, timeout_ns);
    if (c < 0) return false;
    (*site_conn)[s] = c;
  }
  return true;
}

int cmd_setup(const ccpr::server::ClusterConfig& cfg) {
  const std::int64_t timeout = 30 * kSec;
  const std::int64_t t_start = mono_ns();
  const std::int64_t deadline = t_start + timeout;
  Driver d(cfg);
  std::vector<int> site_conn;
  if (!connect_all(d, cfg.site_count(), timeout, &site_conn)) {
    std::cerr << "setup: a site does not accept connections\n";
    return 1;
  }
  for (SiteId s = 0; s < cfg.site_count(); ++s) {
    if (!decode_ok(d.call(site_conn[s], encode_admin(ClientOp::kPing),
                          deadline - mono_ns()))) {
      std::cerr << "setup: site " << s << " does not answer a ping\n";
      return 1;
    }
  }
  const std::int64_t t_ready = mono_ns();
  const auto rmap = cfg.replica_map();
  // Pipelined preload: each key at its writing site, a bounded window per
  // connection so the reactor never pauses reading.
  std::uint64_t bad = 0;
  VarId next = 0;
  while (next < rmap.vars() || d.inflight() > 0) {
    while (next < rmap.vars()) {
      const int c = site_conn[writer_of(rmap, next)];
      if (d.inflight(c) >= 96) break;
      d.send(c, encode_put(next, make_value(Stamp{0, 0, next}, kValueBytes), false),
             [&bad](std::vector<std::uint8_t>&& b, std::int64_t) {
               if (!decode_put(b)) ++bad;
             });
      ++next;
    }
    if (d.io_error() || mono_ns() > deadline) break;
    d.poll(kSec / 100);
  }
  if (bad != 0 || d.io_error() || d.inflight() != 0) {
    std::cerr << "setup: preload failed (" << bad << " bad replies)\n";
    return 1;
  }
  const std::int64_t t_loaded = mono_ns();
  if (!barrier(d, site_conn, std::max<std::int64_t>(deadline - mono_ns(), kSec))) {
    std::cerr << "setup: sites did not converge after the preload\n";
    return 1;
  }
  std::cerr << "setup: ready " << (t_ready - t_start) / 1000 << " us, preload "
            << (t_loaded - t_ready) / 1000 << " us, quiet "
            << (mono_ns() - t_loaded) / 1000 << " us\n";
  return 0;
}

/// Per-site admin scrape: Prometheus text, store and engine stats.
struct Scrape {
  bool ok = true;
  std::vector<std::string> metrics;
  std::vector<ccpr::store::EngineStats> store;
  std::vector<EngineStat> engine;
  std::int64_t at_ns = 0;
  double server_cpu_s = 0;  ///< user + system time of the server processes
};

/// CPU seconds (user + system, all threads) the processes have used.
double cpu_seconds(const std::vector<long>& pids) {
  double ticks = 0;
  for (const long pid : pids) {
    std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(f, line);
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i >= 14) ticks += std::stod(field);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Queue the scrape requests; `out` fills in as the replies arrive.
void send_scrape(Driver& d, const std::vector<int>& site_conn,
                 const std::vector<long>& server_pids, Scrape* out) {
  const std::size_t n = site_conn.size();
  out->metrics.assign(n, {});
  out->store.assign(n, {});
  out->engine.assign(n, {});
  out->at_ns = mono_ns();
  out->server_cpu_s = cpu_seconds(server_pids);
  for (std::size_t s = 0; s < n; ++s) {
    d.send(site_conn[s], encode_admin(ClientOp::kMetrics),
           [out, s](std::vector<std::uint8_t>&& b, std::int64_t) {
             auto t = decode_metrics(b);
             if (t) out->metrics[s] = std::move(*t); else out->ok = false;
           });
    d.send(site_conn[s], encode_admin(ClientOp::kStoreStat),
           [out, s](std::vector<std::uint8_t>&& b, std::int64_t) {
             auto t = decode_store_stat(b);
             if (t) out->store[s] = *t; else out->ok = false;
           });
    d.send(site_conn[s], encode_admin(ClientOp::kEngineStat),
           [out, s](std::vector<std::uint8_t>&& b, std::int64_t) {
             auto t = decode_engine_stat(b);
             if (t) out->engine[s] = *t; else out->ok = false;
           });
  }
}

Json scrape_json(const Scrape& sc) {
  Json sites = Json::array();
  for (std::size_t s = 0; s < sc.metrics.size(); ++s) {
    Json o = Json::object();
    o["metrics"] = sc.metrics[s];
    const auto& st = sc.store[s];
    Json store = Json::object();
    store["keys"] = st.keys;
    store["resident_bytes"] = st.resident_bytes;
    store["lookups"] = st.lookups;
    store["probes"] = st.probes;
    o["store"] = store;
    const auto& en = sc.engine[s];
    Json eng = Json::object();
    eng["shards"] = en.shards;
    eng["parked_envelopes"] = en.parked_envelopes;
    eng["malformed_envelopes"] = en.malformed_envelopes;
    Json rows = Json::array();
    for (const auto& r : en.rows) {
      Json row = Json::object();
      row["writes"] = r.writes;
      row["reads"] = r.reads;
      row["peak"] = r.peak;
      row["producer_waits"] = r.producer_waits;
      row["enqueued_total"] = r.enqueued_total;
      rows.push_back(std::move(row));
    }
    eng["rows"] = std::move(rows);
    o["engine"] = std::move(eng);
    sites.push_back(std::move(o));
  }
  return sites;
}

/// Everything the generator knows about one session's writes, for the
/// reply checks.
struct SessionState {
  SiteId site = 0;
  int conn = -1;
  std::vector<VarId> key_of_seq{0};  ///< put seq -> key (index 0 unused)
  std::unordered_map<VarId, std::uint64_t> acked;  ///< key -> last acked seq
};

class Run {
 public:
  Run(const ccpr::server::ClusterConfig& cfg, const ccpr::util::Flags& flags)
      : cfg_(cfg),
        rmap_(cfg.replica_map()),
        spec_(make_workload(flags.get_string("workload", ""), rmap_)),
        seed_(static_cast<std::uint64_t>(flags.get_int("seed", 1))),
        seconds_(flags.get_double("seconds", 10)),
        trace_(flags.get_int("trace", 0) != 0),
        driver_(cfg) {
    std::istringstream pids(flags.get_string("server-pids", ""));
    for (std::string p; std::getline(pids, p, ',');) {
      if (!p.empty()) server_pids_.push_back(std::stol(p));
    }
    ops_ = generate_ops(spec_, seed_, kWarmupS + seconds_);
    reply_ns_.assign(ops_.size(), 0);
    send_ns_.assign(ops_.size(), 0);
    span_of_.assign(ops_.size(), 0);
  }

  int go(const ccpr::util::Flags& flags) {
    if (!open_connections()) return 1;
    // Wake on time: no timer slack on the schedule's sleeps.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    drive();
    quiesce_and_converge();
    Json out = Json::object();
    out["workload"] = spec_.name;
    out["seed"] = seed_;
    out["nproc"] = nproc();
    out["connections"] = static_cast<std::uint64_t>(driver_.connections());
    out["window_s"] = static_cast<double>(window_end_ - window_start_) / 1e9;
    fill_results(out);
    if (trace_) {
      trace(out, flags);
    }
    out["attempted"] = attempted_;
    out["failed"] = fails_.total;
    out["failures"] = fails_.json();
    const std::string path = flags.get_string("out", "");
    if (!out.save_file(path, 0)) {
      std::cerr << "run: cannot write " << path << "\n";
      return 1;
    }
    return 0;
  }

 private:
  bool open_connections() {
    const std::int64_t timeout = 10 * kSec;
    for (const auto& ss : spec_.sessions) {
      SessionState st;
      st.site = ss.site;
      st.conn = driver_.open(ss.site, timeout);
      if (st.conn < 0) return fail_setup("cannot connect a session");
      sessions_.push_back(std::move(st));
    }
    probe_conn_ = driver_.open(spec_.observer, timeout);
    if (probe_conn_ < 0) return fail_setup("cannot connect the probe");
    if (!connect_all(driver_, cfg_.site_count(), timeout, &site_conn_)) {
      return fail_setup("cannot connect an admin connection");
    }
    if (driver_.connections() > nproc()) {
      return fail_setup("workload needs more connections than processors");
    }
    return true;
  }

  bool fail_setup(const char* why) {
    std::cerr << "run: " << why << "\n";
    return false;
  }

  void issue(std::size_t i, std::int64_t now) {
    const Op& op = ops_[i];
    SessionState& ss = sessions_[op.session - 1];
    send_ns_[i] = now;
    ++attempted_;
    switch (op.kind) {
      case OpKind::kPut: {
        if (ss.key_of_seq.size() <= op.seq) ss.key_of_seq.resize(op.seq + 1);
        ss.key_of_seq[op.seq] = op.keys[0];
        const Stamp st{op.session, op.seq, op.keys[0]};
        driver_.send(ss.conn,
                     encode_put(op.keys[0], make_value(st, kValueBytes),
                                op.probe),
                     [this, i](std::vector<std::uint8_t>&& b, std::int64_t t) {
                       on_put(i, b, t);
                     });
        return;
      }
      case OpKind::kGet: {
        const auto it = ss.acked.find(op.keys[0]);
        const std::uint64_t floor = it == ss.acked.end() ? 0 : it->second;
        driver_.send(ss.conn, encode_get(op.keys[0]),
                     [this, i, floor](std::vector<std::uint8_t>&& b,
                                      std::int64_t t) {
                       on_reply(i, t);
                       const auto v = decode_get(b);
                       if (!v) {
                         fails_.add("bad_reply");
                         return;
                       }
                       check_value(ops_[i], ops_[i].keys[0], *v, floor);
                     });
        return;
      }
      case OpKind::kSnapshot: {
        std::vector<VarId> xs(op.keys.begin(), op.keys.begin() + op.nkeys);
        driver_.send(ss.conn, encode_snapshot(xs),
                     [this, i](std::vector<std::uint8_t>&& b, std::int64_t t) {
                       on_reply(i, t);
                       const Op& o = ops_[i];
                       const auto vs = decode_snapshot(b, o.nkeys);
                       if (!vs) {
                         fails_.add("bad_reply");
                         return;
                       }
                       for (std::size_t j = 0; j < o.nkeys; ++j) {
                         check_value(o, o.keys[j], (*vs)[j], 0);
                       }
                     });
        return;
      }
    }
  }

  /// Reply bookkeeping. In a traced run the requests scheduled in odd
  /// seconds of the window also leave spans, kept in memory; the even
  /// seconds are the untraced control for the tracing overhead.
  void on_reply(std::size_t i, std::int64_t t) {
    reply_ns_[i] = t;
    if (!trace_) return;
    const std::int64_t sched = loop_->sched_abs(i);
    if (sched < window_start_ || ((sched - window_start_) / kSec) % 2 == 0) {
      return;
    }
    const std::uint64_t root = next_span_++;
    span_of_[i] = root;
    const std::string kind = op_name(ops_[i].kind);
    spans_.push_back(Span{root, 0, root, "request." + kind, sched, t});
    spans_.push_back(Span{next_span_++, root, root, "loadgen.queue", sched, send_ns_[i]});
    spans_.push_back(Span{next_span_++, root, root, "server." + kind, send_ns_[i], t});
  }

  void on_put(std::size_t i, const std::vector<std::uint8_t>& body,
              std::int64_t t) {
    on_reply(i, t);
    const Op& op = ops_[i];
    SessionState& ss = sessions_[op.session - 1];
    const auto r = decode_put(body);
    if (!r || r->id.writer != ss.site) {
      fails_.add("bad_reply");
      return;
    }
    auto& last = ss.acked[op.keys[0]];
    last = std::max(last, op.seq);
    if (!op.probe) return;
    const std::vector<std::uint8_t>* token = nullptr;
    for (const auto& [site, tok] : r->tokens) {
      if (site == spec_.observer) token = &tok;
    }
    if (token == nullptr) {
      fails_.add("missing_token");
      return;
    }
    ++attempted_;
    const std::size_t p = probes_.size();
    probes_.push_back(Probe{i, t, 0});
    driver_.send(probe_conn_, encode_covered(*token, 2'000'000),
                 [this, p](std::vector<std::uint8_t>&& b, std::int64_t now) {
                   probes_[p].reply_ns = now;
                   const std::uint64_t parent = span_of_[probes_[p].op];
                   if (parent != 0) {
                     spans_.push_back(Span{next_span_++, parent, parent,
                                           "request.visibility",
                                           probes_[p].ack_ns, now});
                   }
                   const auto covered = decode_covered(b);
                   if (!covered) fails_.add("bad_reply");
                   else if (!*covered) fails_.add("not_covered");
                 });
  }

  /// The value of `x` read by `op`: the preload's or one this generator
  /// wrote to x, and never older than the session's own acked put `floor`.
  void check_value(const Op& op, VarId x, const ccpr::causal::Value& v,
                   std::uint64_t floor) {
    const auto st = parse_value(v.data);
    if (!st || st->key != x) {
      fails_.add("foreign_value");
      return;
    }
    if (st->session == 0) {
      if (st->seq != 0) fails_.add("foreign_value");
      else if (floor != 0) fails_.add("stale_read");
      return;
    }
    if (st->session > sessions_.size()) {
      fails_.add("foreign_value");
      return;
    }
    const auto& writer = sessions_[st->session - 1];
    if (st->seq >= writer.key_of_seq.size() || st->seq == 0 ||
        writer.key_of_seq[st->seq] != x) {
      fails_.add("foreign_value");
      return;
    }
    if (st->session == op.session && st->seq < floor) {
      fails_.add("stale_read");
    }
  }

  void drive() {
    const std::int64_t t0 = mono_ns() + kSec / 500;
    window_start_ = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
    window_end_ = t0 + static_cast<std::int64_t>((kWarmupS + seconds_) * 1e9);
    loop_.emplace(ops_, t0);
    OpenLoop& loop = *loop_;
    bool started = false;
    std::int64_t drain_deadline = 0;
    for (;;) {
      const std::int64_t now = mono_ns();
      for (std::int64_t i = loop.next_due(now); i >= 0; i = loop.next_due(now)) {
        issue(static_cast<std::size_t>(i), now);
      }
      if (!started && now >= window_start_) {
        started = true;
        send_scrape(driver_, site_conn_, server_pids_, &scrape_start_);
      }
      if (loop.done()) {
        if (drain_deadline == 0) drain_deadline = now + 10 * kSec;
        if (driver_.inflight() == 0 || now > drain_deadline) break;
      }
      const std::int64_t wait =
          loop.done() ? kSec / 1000 : loop.next_deadline() - now;
      driver_.poll(std::min<std::int64_t>(wait, kSec / 100));
    }
    fails_.add("unanswered", driver_.inflight());
    if (driver_.io_error()) fails_.add("connection_lost");
    // Closing scrape on a quiet cluster: every timed request has been
    // answered.
    send_scrape(driver_, site_conn_, server_pids_, &scrape_end_);
    const std::int64_t scrape_deadline = mono_ns() + 10 * kSec;
    while (driver_.inflight() > 0 && !driver_.io_error() &&
           mono_ns() < scrape_deadline) {
      driver_.poll(kSec / 100);
    }
    if (!scrape_start_.ok || !scrape_end_.ok || driver_.inflight() > 0) {
      fails_.add("bad_scrape");
    }
  }

  /// Wait for every site to cover every other, then read a sample of the
  /// written keys at each of their replicas: all must agree.
  void quiesce_and_converge() {
    if (!barrier(driver_, site_conn_, 10 * kSec)) {
      fails_.add("not_quiet");
      return;
    }
    std::vector<VarId> written;
    for (const auto& ss : sessions_) {
      for (std::size_t q = 1; q < ss.key_of_seq.size(); ++q) {
        written.push_back(ss.key_of_seq[q]);
      }
    }
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());
    ccpr::util::Rng rng(seed_ ^ 0xc0ffeeULL);
    std::shuffle(written.begin(), written.end(), rng);
    if (written.size() > 200) written.resize(200);
    for (const VarId x : written) {
      std::optional<Stamp> first;
      for (const SiteId s : rmap_.replicas(x)) {
        ++attempted_;
        const auto v = decode_get(driver_.call(site_conn_[s], encode_get(x), 5 * kSec));
        const auto st = v ? parse_value(v->data) : std::nullopt;
        if (!st) {
          fails_.add("bad_reply");
          continue;
        }
        if (!first) first = st;
        else if (!(*first == *st)) fails_.add("diverged");
      }
    }
  }

  void fill_results(Json& out) {
    std::vector<std::pair<std::int64_t, double>> lat[kOpKinds];
    std::vector<double> late;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const std::int64_t sched = loop_->sched_abs(i);
      if (sched < window_start_ || reply_ns_[i] == 0) continue;
      lat[static_cast<std::size_t>(ops_[i].kind)].emplace_back(
          sched, static_cast<double>(loop_->latency_ns(i, reply_ns_[i])) / 1e3);
      late.push_back(static_cast<double>(loop_->lateness_ns(i, send_ns_[i])) / 1e3);
    }
    std::vector<std::pair<std::int64_t, double>> vis;
    for (const Probe& p : probes_) {
      const std::int64_t sched = loop_->sched_abs(p.op);
      if (sched < window_start_ || p.reply_ns == 0) continue;
      vis.emplace_back(sched, static_cast<double>(p.reply_ns - p.ack_ns) / 1e3);
    }
    Json lats = Json::object();
    for (std::size_t k = 0; k < kOpKinds; ++k) {
      lats[op_name(static_cast<OpKind>(k))] =
          timed_summary(lat[k], window_start_, window_end_);
    }
    // Throughput counts the replies that arrived between the two scrapes;
    // the closing one waits for the last reply, so a growing backlog
    // stretches the interval and shows as a rate below the offered one.
    std::uint64_t done = 0;
    for (const std::int64_t r : reply_ns_) {
      done += r >= scrape_start_.at_ns && r < scrape_end_.at_ns;
    }
    lats["visibility"] = timed_summary(vis, window_start_, window_end_);
    out["latency_us"] = std::move(lats);
    out["late_us"] = summary(late);
    out["completed"] = done;
    out["scrape_start"] = scrape_json(scrape_start_);
    out["scrape_end"] = scrape_json(scrape_end_);
    out["server_cpu_s"] = scrape_end_.server_cpu_s - scrape_start_.server_cpu_s;
    out["scrape_interval_s"] =
        static_cast<double>(scrape_end_.at_ns - scrape_start_.at_ns) / 1e9;
  }

  /// The traced run's extras: tracing overhead, the client session, the
  /// layer replay, self time per span name, and the spans file.
  void trace(Json& out, const ccpr::util::Flags& flags) {
    std::vector<double> traced;
    std::vector<double> untraced;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (loop_->sched_abs(i) < window_start_ || reply_ns_[i] == 0) continue;
      const double us = static_cast<double>(loop_->latency_ns(i, reply_ns_[i])) / 1e3;
      (span_of_[i] != 0 ? traced : untraced).push_back(us);
    }
    // Both halves carry the same traffic; only the traced seconds pay for
    // span bookkeeping, so their p50 gap is the tracing overhead.
    Json tr = Json::object();
    tr["traced_p50_us"] = percentile(traced, 0.5);
    tr["untraced_p50_us"] = percentile(untraced, 0.5);

    // The closed-loop client session and the in-process layer replay both
    // run after the timed window, on the now quiet cluster.
    out["client"] = client_session();
    out["layers"] = replay_layers(cfg_, spec_, ops_,
                                  flags.get_string("data-dir", ""), &spans_,
                                  &next_span_);

    Json self = Json::object();
    for (const auto& [name, st] : self_time_by_name(spans_)) {
      Json o = Json::object();
      o["count"] = st.count;
      o["self_p50_us"] = st.p50_ns / 1e3;
      o["self_total_ms"] = st.total_ns / 1e6;
      self[name] = std::move(o);
    }
    tr["spans"] = static_cast<std::uint64_t>(spans_.size());
    tr["self_time"] = self;
    out["trace"] = tr;

    const std::string path = flags.get_string("spans", "");
    if (path.empty()) return;
    Json arr = Json::array();
    for (const Span& s : spans_) {
      arr.push_back(Json::Array{s.id, s.parent, s.trace, s.name, s.start_ns,
                                s.end_ns});
    }
    Json doc = Json::object();
    doc["fields"] = Json::Array{"id", "parent", "trace", "name", "start_ns",
                                "end_ns"};
    doc["spans"] = std::move(arr);
    doc["self_time"] = std::move(self);
    if (!doc.save_file(path, 0)) fails_.add("spans_not_written");
  }

  /// Time inside client::Client::put/get for one closed-loop session at
  /// the first writing session's site, over that session's keys.
  Json client_session() {
    Json o = Json::object();
    const auto it = std::find_if(
        spec_.sessions.begin(), spec_.sessions.end(),
        [](const SessionSpec& s) { return !s.put_keys.empty(); });
    const SessionSpec& ss = *it;  // every workload has a writing session
    const auto session = static_cast<std::uint32_t>(sessions_.size() + 1);
    std::vector<double> put_us;
    std::vector<double> get_us;
    try {
      ccpr::client::Client c(cfg_, ss.site);
      ccpr::util::Rng rng(seed_ + 77);
      for (std::uint64_t k = 1; k <= 300; ++k) {
        const VarId x = ss.put_keys[rng.below(ss.put_keys.size())];
        std::int64_t t = mono_ns();
        c.put(x, make_value(Stamp{session, k, x}, kValueBytes));
        put_us.push_back(static_cast<double>(mono_ns() - t) / 1e3);
        t = mono_ns();
        const auto v = c.get(ss.get_keys[rng.below(ss.get_keys.size())]);
        get_us.push_back(static_cast<double>(mono_ns() - t) / 1e3);
        if (!parse_value(v.data)) fails_.add("client_foreign_value");
      }
    } catch (const std::exception& e) {
      std::cerr << "run: client session: " << e.what() << "\n";
      fails_.add("client_error");
    }
    o["put_call"] = summary(put_us);
    o["get_call"] = summary(get_us);
    return o;
  }

  struct Probe {
    std::size_t op;
    std::int64_t ack_ns;
    std::int64_t reply_ns;
  };

  const ccpr::server::ClusterConfig& cfg_;
  ccpr::causal::ReplicaMap rmap_;
  WorkloadSpec spec_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  Driver driver_;
  std::vector<Op> ops_;
  std::vector<std::int64_t> send_ns_;
  std::vector<std::int64_t> reply_ns_;
  std::vector<SessionState> sessions_;
  std::vector<Probe> probes_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> span_of_;  ///< op -> its root span (0 = none)
  std::uint64_t next_span_ = 1;
  std::vector<int> site_conn_;
  std::vector<long> server_pids_;
  int probe_conn_ = -1;
  std::optional<OpenLoop> loop_;  ///< the schedule, from drive() on
  std::int64_t window_start_ = 0;
  std::int64_t window_end_ = 0;
  Scrape scrape_start_;
  Scrape scrape_end_;
  std::uint64_t attempted_ = 0;
  Failures fails_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_loadgen setup|run --config=<conf> ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = ccpr::util::Flags::parse(argc - 1, argv + 1);
  flags.note_known({"config", "workload", "seed", "seconds", "trace", "out",
                    "spans", "data-dir", "server-pids"});
  flags.exit_on_unknown("perfbench_loadgen");
  std::string err;
  const auto cfg = ccpr::server::ClusterConfig::load(
      flags.get_string("config", ""), &err);
  if (!cfg) {
    std::cerr << "perfbench_loadgen: " << err << "\n";
    return 2;
  }
  try {
    if (cmd == "setup") return cmd_setup(*cfg);
    if (cmd == "run") return Run(*cfg, flags).go(flags);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_loadgen: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_loadgen: unknown command " << cmd << "\n";
  return 2;
}
