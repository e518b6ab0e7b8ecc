#include "layers.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "causal/factory.hpp"
#include "driver.hpp"
#include "metrics/metrics.hpp"
#include "net/frame.hpp"
#include "server/protocol_engine.hpp"
#include "server/wal.hpp"
#include "store/engine/value_engine.hpp"
#include "wire.hpp"

namespace perfbench {

using ccpr::util::Json;
namespace causal = ccpr::causal;
namespace net = ccpr::net;

namespace {

/// Collects call durations for one layer and records them as spans.
class Timer {
 public:
  Timer(const char* name, std::vector<Span>* spans, std::uint64_t* next_id)
      : name_(name), spans_(spans), next_id_(next_id) {}

  void add(std::int64_t start, std::int64_t end) {
    ns_.push_back(static_cast<double>(end - start));
    const std::uint64_t id = (*next_id_)++;
    spans_->push_back(Span{id, 0, id, name_, start, end});
  }
  /// Time `fn` and record it.
  template <class F>
  void time(F&& fn) {
    const std::int64_t t = mono_ns();
    fn();
    add(t, mono_ns());
  }
  double p50_ns() const { return percentile(ns_, 0.5); }
  std::size_t count() const { return ns_.size(); }

 private:
  std::string name_;
  std::vector<double> ns_;
  std::vector<Span>* spans_;
  std::uint64_t* next_id_;
};

std::string value_of(const Op& op, causal::VarId x, std::size_t bytes) {
  return make_value(Stamp{op.session, op.seq, x}, bytes);
}

causal::ProtocolOptions bare_options(const ccpr::server::ClusterConfig& cfg) {
  causal::ProtocolOptions popts = cfg.protocol;
  popts.engine_shards = 1;  // as each server shard builds its protocols
  popts.store_engine.spill_budget_bytes = 0;
  return popts;
}

Json replay_store(const ccpr::server::ClusterConfig& cfg,
                  const std::vector<Op>& ops,
                  std::vector<Span>* spans, std::uint64_t* next_id) {
  auto eopts = bare_options(cfg).store_engine;
  auto engine = ccpr::store::make_engine(eopts);
  const auto rmap = cfg.replica_map();
  for (causal::VarId x = 0; x < rmap.vars(); ++x) {
    causal::Value v;
    v.data = make_value(Stamp{0, 0, x}, kValueBytes);
    engine->put(x, std::move(v));
  }
  Timer put("store.put", spans, next_id);
  Timer get("store.get", spans, next_id);
  std::uint64_t lamport = 1;
  std::size_t found = 0;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kPut) {
      causal::Value v;
      v.id = causal::WriteId{0, op.seq};
      v.lamport = ++lamport;
      v.data = value_of(op, op.keys[0], kValueBytes);
      put.time([&] { engine->put(op.keys[0], std::move(v)); });
    } else {
      for (std::size_t j = 0; j < op.nkeys; ++j) {
        get.time([&] { found += engine->find(op.keys[j]) != nullptr; });
      }
    }
  }
  Json o = Json::object();
  o["put_ns"] = put.p50_ns();
  o["get_ns"] = get.p50_ns();
  o["found"] = static_cast<std::uint64_t>(found);
  return o;
}

Json replay_wal(const std::vector<Op>& ops, const std::string& data_dir,
                std::vector<Span>* spans, std::uint64_t* next_id) {
  Json o = Json::object();
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(data_dir) / "wal-replay";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  ccpr::server::Wal::Options wo;
  wo.dir = dir.string();
  wo.sync = ccpr::server::Wal::Sync::kBatch;  // geo_write's policy
  ccpr::server::Wal::OpenResult res;
  std::string err;
  auto wal = ccpr::server::Wal::open(wo, &res, &err);
  if (!wal) throw std::runtime_error("wal replay: " + err);
  Timer append("server.wal.append", spans, next_id);
  Timer sync("server.wal.sync", spans, next_id);
  std::size_t n = 0;
  bool ok = true;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kPut) continue;
    net::Encoder enc;
    enc.varint(op.keys[0]);
    enc.bytes(value_of(op, op.keys[0], kValueBytes));
    const auto& b = enc.buffer();
    const std::string_view payload(reinterpret_cast<const char*>(b.data()),
                                   b.size());
    append.time([&] {
      ok &= wal->append(ccpr::server::Wal::kLocalWrite, payload);
    });
    // Batch policy: the server syncs once per anti-entropy round; replay
    // one sync per 32 appends.
    if (++n % 32 == 0) sync.time([&] { ok &= wal->sync(); });
  }
  if (!ok) throw std::runtime_error("wal replay: append or sync failed");
  o["append_p50_us"] = append.p50_ns() / 1e3;
  o["sync_p50_us"] = sync.p50_ns() / 1e3;
  o["appends"] = static_cast<std::uint64_t>(append.count());
  wal.reset();
  fs::remove_all(dir, ec);
  return o;
}

/// Three bare protocols joined by an in-memory FIFO bus: the causal layer
/// with no threads, sockets or queues around it.
Json replay_causal(const ccpr::server::ClusterConfig& cfg,
                   const WorkloadSpec& spec, const std::vector<Op>& ops,
                   std::vector<Span>* spans, std::uint64_t* next_id,
                   std::vector<net::Message>* updates) {
  const auto rmap = cfg.replica_map();
  const std::uint32_t n = rmap.sites();
  std::deque<net::Message> bus;
  std::vector<ccpr::metrics::Metrics> metrics(n);
  std::vector<std::unique_ptr<causal::IProtocol>> proto;
  for (causal::SiteId s = 0; s < n; ++s) {
    causal::Services svc;
    svc.send = [&bus](net::Message m) { bus.push_back(std::move(m)); };
    svc.now = [] { return mono_ns() / 1000; };
    svc.metrics = &metrics[s];
    proto.push_back(
        causal::make_protocol(cfg.algorithm, s, rmap, std::move(svc),
                              bare_options(cfg)));
  }
  Timer write("causal.write", spans, next_id);
  Timer apply("causal.apply", spans, next_id);
  Timer read("causal.read", spans, next_id);
  std::uint64_t control = 0;
  std::uint64_t update_msgs = 0;
  const auto deliver = [&](bool timed, std::int64_t* fetch_ns) {
    while (!bus.empty()) {
      net::Message m = std::move(bus.front());
      bus.pop_front();
      const std::int64_t t = mono_ns();
      proto[m.dst]->on_message(m);
      const std::int64_t e = mono_ns();
      if (m.kind == net::MsgKind::kUpdate) {
        if (timed) apply.add(t, e);
        control += m.control_bytes();
        ++update_msgs;
        if (timed && updates->size() < 4000) updates->push_back(std::move(m));
      } else if (fetch_ns != nullptr) {
        *fetch_ns += e - t;
      }
    }
  };
  for (causal::VarId x = 0; x < rmap.vars(); ++x) {
    proto[writer_of(rmap, x)]->write(x, make_value(Stamp{0, 0, x}, kValueBytes));
    deliver(false, nullptr);
  }
  control = 0;
  update_msgs = 0;
  std::uint64_t log_peak = 0;
  std::uint64_t pending_peak = 0;
  for (const Op& op : ops) {
    const causal::SiteId s = spec.sessions[op.session - 1].site;
    if (op.kind == OpKind::kPut) {
      write.time([&] {
        proto[s]->write(op.keys[0], value_of(op, op.keys[0], kValueBytes));
      });
      deliver(true, nullptr);
    } else {
      for (std::size_t j = 0; j < op.nkeys; ++j) {
        // A remote read's cost includes the fetch request served at the
        // replica and the response merged here.
        bool done = false;
        std::int64_t fetch_ns = 0;
        const std::int64_t t = mono_ns();
        proto[s]->read(op.keys[j], [&done](const causal::Value&) { done = true; });
        const std::int64_t e = mono_ns();
        deliver(true, &fetch_ns);
        if (!done) throw std::runtime_error("causal replay: read never completed");
        read.add(t, e + fetch_ns);
      }
    }
    for (const auto& p : proto) {
      log_peak = std::max(log_peak, p->log_entry_count());
      pending_peak = std::max<std::uint64_t>(pending_peak, p->pending_update_count());
    }
  }
  Json o = Json::object();
  o["write_ns"] = write.p50_ns();
  o["apply_ns"] = apply.p50_ns();
  o["read_ns"] = read.p50_ns();
  o["control_bytes_per_update"] =
      update_msgs ? static_cast<double>(control) / static_cast<double>(update_msgs)
                  : 0.0;
  o["log_entries_peak"] = log_peak;
  o["pending_peak"] = pending_peak;
  return o;
}

Json replay_frames(const std::vector<net::Message>& updates,
                   std::vector<Span>* spans, std::uint64_t* next_id) {
  Timer enc("net.frame.encode", spans, next_id);
  Timer dec("net.frame.decode", spans, next_id);
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;
  for (const net::Message& m : updates) {
    std::vector<std::uint8_t> frame;
    enc.time([&] { frame = net::encode_frame(m, 1, ++seq); });
    bytes += frame.size();
    std::optional<net::Frame> f;
    dec.time([&] {
      f = net::decode_frame_body(frame.data() + net::kFrameLenBytes,
                                 frame.size() - net::kFrameLenBytes);
    });
    if (!f || f->msg.body != m.body) {
      throw std::runtime_error("frame replay: decode does not match encode");
    }
  }
  Json o = Json::object();
  o["encode_ns"] = enc.p50_ns();
  o["decode_ns"] = dec.p50_ns();
  o["update_bytes"] = updates.empty() ? 0.0
                                      : static_cast<double>(bytes) /
                                            static_cast<double>(updates.size());
  return o;
}

/// Three ProtocolEngines (one apply thread each) wired to each other in
/// memory: the engine handoff with the protocol inside, no sockets.
Json replay_engine(const ccpr::server::ClusterConfig& cfg,
                   const WorkloadSpec& spec, const std::vector<Op>& ops,
                   std::vector<Span>* spans, std::uint64_t* next_id) {
  namespace srv = ccpr::server;
  const auto rmap = cfg.replica_map();
  const std::uint32_t n = rmap.sites();
  std::vector<std::unique_ptr<srv::ProtocolEngine>> eng;
  std::vector<ccpr::metrics::Metrics> metrics(n);
  for (causal::SiteId s = 0; s < n; ++s) {
    eng.push_back(std::make_unique<srv::ProtocolEngine>(srv::ProtocolEngine::Options{}));
  }
  for (causal::SiteId s = 0; s < n; ++s) {
    causal::Services svc;
    svc.send = [&eng](net::Message m) {
      const auto dst = m.dst;
      eng[dst]->apply_message(std::move(m), /*bounded=*/false);
    };
    svc.now = [] { return mono_ns() / 1000; };
    svc.metrics = &metrics[s];
    eng[s]->adopt_protocol(causal::make_protocol(cfg.algorithm, s, rmap,
                                                 std::move(svc), bare_options(cfg)),
                           &metrics[s]);
  }
  // One request in flight at a time: the caller waits for the callback.
  std::mutex mu;
  std::condition_variable cv;
  std::int64_t done_at = 0;
  const auto await = [&] {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return done_at != 0; });
    const std::int64_t t = done_at;
    done_at = 0;
    return t;
  };
  const auto complete = [&] {
    const std::int64_t t = mono_ns();
    {
      std::lock_guard lk(mu);
      done_at = t;
    }
    cv.notify_one();
  };
  std::atomic<std::uint64_t> preloaded{0};
  bool ok = true;
  for (auto& e : eng) e->start();
  // Every apply thread stops before anything its callbacks or sends touch
  // goes away, even when the replay throws.
  struct StopAll {
    std::vector<std::unique_ptr<srv::ProtocolEngine>>& engines;
    ~StopAll() {
      for (auto& e : engines) e->stop();
    }
  } stop_all{eng};

  // Preload pipelined: every write queued at once, then wait for all.
  for (causal::VarId x = 0; x < rmap.vars(); ++x) {
    const causal::SiteId w = writer_of(rmap, x);
    eng[w]->async_write(x, make_value(Stamp{0, 0, x}, kValueBytes), true,
                        [&preloaded](auto) { preloaded.fetch_add(1); });
  }
  const std::int64_t deadline = mono_ns() + 60'000'000'000;
  while (preloaded.load() < rmap.vars()) {
    if (mono_ns() > deadline) throw std::runtime_error("engine replay: preload stalled");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Timer write("server.engine.write", spans, next_id);
  Timer read("server.engine.read", spans, next_id);
  Timer handoff("server.engine.handoff", spans, next_id);
  for (const Op& op : ops) {
    const causal::SiteId s = spec.sessions[op.session - 1].site;
    const std::int64_t t = mono_ns();
    if (op.kind == OpKind::kPut) {
      eng[s]->async_write(op.keys[0], value_of(op, op.keys[0], kValueBytes),
                          rmap.replicated_at(op.keys[0], s),
                          [&](std::optional<srv::ProtocolEngine::WriteResult> r) {
                            ok &= r.has_value();
                            complete();
                          });
      write.add(t, await());
    } else {
      eng[s]->async_read(op.keys[0], [&](std::optional<causal::Value> v) {
        ok &= v.has_value();
        complete();
      });
      read.add(t, await());
    }
    // The handoff alone: a round trip through the same queue and apply
    // thread for a command whose protocol work is a small token encode.
    const std::int64_t h = mono_ns();
    eng[s]->async_token((s + 1) % n,
                        [&](std::optional<std::vector<std::uint8_t>> tok) {
                          ok &= tok.has_value();
                          complete();
                        });
    handoff.add(h, await());
  }
  if (!ok) throw std::runtime_error("engine replay: an operation failed");
  Json o = Json::object();
  o["write_p50_us"] = write.p50_ns() / 1e3;
  o["read_p50_us"] = read.p50_ns() / 1e3;
  o["handoff_p50_us"] = handoff.p50_ns() / 1e3;
  return o;
}

}  // namespace

Json replay_layers(const ccpr::server::ClusterConfig& cfg,
                   const WorkloadSpec& spec, const std::vector<Op>& all_ops,
                   const std::string& data_dir, std::vector<Span>* spans,
                   std::uint64_t* next_id) {
  constexpr std::size_t kMaxOps = 4000;
  const std::vector<Op> ops(
      all_ops.begin(),
      all_ops.begin() + static_cast<std::ptrdiff_t>(
                            std::min(all_ops.size(), kMaxOps)));
  Json o = Json::object();
  o["ops"] = static_cast<std::uint64_t>(ops.size());
  o["store"] = replay_store(cfg, ops, spans, next_id);
  o["wal"] = replay_wal(ops, data_dir, spans, next_id);
  std::vector<net::Message> updates;
  o["causal"] = replay_causal(cfg, spec, ops, spans, next_id, &updates);
  o["frame"] = replay_frames(updates, spans, next_id);
  o["engine"] = replay_engine(cfg, spec, ops, spans, next_id);
  return o;
}

}  // namespace perfbench
