#include "server/protocol_engine.hpp"

#include <algorithm>
#include <utility>

#include "net/wake_batch.hpp"
#include "util/assert.hpp"
#include "util/thread_name.hpp"

namespace ccpr::server {

const char* ProtocolEngine::kind_name(CmdKind k) noexcept {
  switch (k) {
    case CmdKind::kWrite: return "write";
    case CmdKind::kRead: return "read";
    case CmdKind::kSnapshot: return "snapshot";
    case CmdKind::kToken: return "token";
    case CmdKind::kCovered: return "covered";
    case CmdKind::kStatus: return "status";
    case CmdKind::kApplyUpdate: return "apply_update";
    case CmdKind::kTimer: return "timer";
    case CmdKind::kCatchup: return "catchup";
    case CmdKind::kKindCount: break;
  }
  return "unknown";
}

ProtocolEngine::ProtocolEngine(Options opts) : opts_(opts) {
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
}

ProtocolEngine::~ProtocolEngine() { stop(); }

void ProtocolEngine::adopt_protocol(std::unique_ptr<causal::IProtocol> proto,
                                    metrics::Metrics* proto_metrics) {
  CCPR_EXPECTS(proto_ == nullptr && proto != nullptr);
  CCPR_EXPECTS(proto_metrics != nullptr);
  proto_ = std::move(proto);
  proto_metrics_ = proto_metrics;
}

void ProtocolEngine::configure_durability(
    Durability::Options opts, std::function<void(net::Message)> transport_send) {
  CCPR_EXPECTS(durability_ == nullptr);
  std::lock_guard lk(mu_);
  CCPR_EXPECTS(!running_);
  durability_ =
      std::make_unique<Durability>(std::move(opts), std::move(transport_send));
}

bool ProtocolEngine::recover(std::string* err) {
  std::lock_guard lifecycle(lifecycle_mu_);
  CCPR_EXPECTS(proto_ != nullptr);
  {
    std::lock_guard lk(mu_);
    CCPR_EXPECTS(!running_);
  }
  if (!durability_) return true;
  return durability_->recover(proto_.get(), err);
}

void ProtocolEngine::set_batch_end_hook(BatchEndHook hook) {
  CCPR_EXPECTS(!batch_end_hook_);
  std::lock_guard lk(mu_);
  CCPR_EXPECTS(!running_);
  batch_end_hook_ = std::move(hook);
}

void ProtocolEngine::start() {
  std::lock_guard lifecycle(lifecycle_mu_);
  CCPR_EXPECTS(proto_ != nullptr);
  std::lock_guard lk(mu_);
  CCPR_EXPECTS(!running_);
  stop_requested_ = false;
  running_ = true;
  apply_thread_ = std::thread([this] {
    util::set_thread_name(opts_.thread_name);
    loop();
  });
}

void ProtocolEngine::stop() {
  // lifecycle_mu_ serializes concurrent stop() calls: without it both could
  // pass the joinable() check and join the same thread twice. The apply
  // thread never takes it, so holding it across the join cannot deadlock.
  std::lock_guard lifecycle(lifecycle_mu_);
  {
    std::lock_guard lk(mu_);
    if (!running_ && !stop_requested_) return;
    stop_requested_ = true;
  }
  cv_consume_.notify_all();
  cv_produce_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
  std::lock_guard lk(mu_);
  running_ = false;
}

bool ProtocolEngine::running() const noexcept {
  std::lock_guard lk(mu_);
  return running_ && !stop_requested_;
}

bool ProtocolEngine::enqueue(CmdKind kind, std::function<void()> run,
                             bool bounded) {
  std::unique_lock lk(mu_);
  if (bounded && queue_.size() >= opts_.queue_capacity && !stop_requested_) {
    ++producer_waits_;
    cv_produce_.wait(lk, [&] {
      return queue_.size() < opts_.queue_capacity || stop_requested_;
    });
  }
  if (stop_requested_ || !running_) return false;
  queue_.push_back(Cmd{kind, std::move(run)});
  ++enqueued_[static_cast<std::size_t>(kind)];
  if (queue_.size() > peak_depth_) peak_depth_ = queue_.size();
  lk.unlock();
  cv_consume_.notify_one();
  return true;
}

void ProtocolEngine::defer(std::function<void()> fn) {
  // Apply-thread-only (command lambdas, read continuations, the hook's
  // aftermath); outside a batch — e.g. abort paths — run immediately.
  if (in_batch_) {
    deferred_.push_back(std::move(fn));
  } else {
    fn();
  }
}

// ---- command builders (shared by the blocking and async front doors) ----

void ProtocolEngine::submit_write(causal::VarId x, std::string data,
                                  bool local_replica, WriteCb cb,
                                  bool bounded) {
  auto cbp = std::make_shared<WriteCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kWrite,
      [this, cbp, x, data = std::move(data), local_replica]() mutable {
        // Write-ahead: the WAL record lands before the protocol mutates, so
        // a crash between the two replays the write instead of losing it
        // (the client may not have been acked — that is allowed).
        if (durability_) durability_->on_local_write(x, data);
        proto_->write(x, std::move(data));
        WriteResult r;
        r.id = proto_->last_write_id();
        if (local_replica) r.lamport = proto_->peek(x).lamport;
        defer([cbp, r] { (*cbp)(r); });
        if (durability_) durability_->maybe_checkpoint(proto_.get());
      },
      bounded);
  if (!ok) (*cbp)(std::nullopt);
}

void ProtocolEngine::submit_read(causal::VarId x, ReadCb cb, bool bounded) {
  auto st = std::make_shared<ReadState>();
  st->cb = std::move(cb);
  const bool ok = enqueue(
      CmdKind::kRead,
      [this, st, x] {
        proto_->read(x, [this, st](const causal::Value& v) {
          st->fired = true;
          defer([st, v] { st->cb(v); });
        });
        // A RemoteFetch in flight leaves the continuation pending; park the
        // state so stop() can abort it if the response never arrives.
        if (!st->fired) parked_reads_.push_back(st);
      },
      bounded);
  if (!ok) st->cb(std::nullopt);
}

void ProtocolEngine::submit_snapshot(std::vector<causal::VarId> xs,
                                     SnapshotCb cb, bool bounded) {
  auto cbp = std::make_shared<SnapshotCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kSnapshot,
      [this, cbp, xs = std::move(xs)] {
        // One apply slot => the values form a causally consistent cut. All
        // vars are locally replicated (caller-validated), so every
        // continuation runs synchronously.
        std::vector<causal::Value> out;
        out.reserve(xs.size());
        for (const causal::VarId x : xs) {
          proto_->read(x, [&out](const causal::Value& v) { out.push_back(v); });
        }
        CCPR_ASSERT(out.size() == xs.size());
        defer([cbp, out = std::move(out)]() mutable {
          (*cbp)(std::move(out));
        });
      },
      bounded);
  if (!ok) (*cbp)(std::nullopt);
}

void ProtocolEngine::submit_token(causal::SiteId target, TokenCb cb,
                                  bool bounded) {
  auto cbp = std::make_shared<TokenCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kToken,
      [this, cbp, target] {
        auto token = proto_->coverage_token(target);
        defer([cbp, token = std::move(token)]() mutable {
          (*cbp)(std::move(token));
        });
      },
      bounded);
  if (!ok) (*cbp)(std::nullopt);
}

void ProtocolEngine::submit_covered(
    std::vector<std::uint8_t> token, bool has_deadline,
    std::chrono::steady_clock::time_point deadline, CoveredCb cb,
    bool bounded) {
  auto cbp = std::make_shared<CoveredCb>(std::move(cb));
  const bool ok = enqueue(
      CmdKind::kCovered,
      [this, cbp, token = std::move(token), has_deadline,
       deadline]() mutable {
        if (proto_->covered_by(token)) {
          defer([cbp] { (*cbp)(true); });
          return;
        }
        if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
          defer([cbp] { (*cbp)(false); });
          return;
        }
        covered_waiters_.push_back(
            CoveredWaiter{std::move(token), has_deadline, deadline, cbp});
      },
      bounded);
  if (!ok) (*cbp)(std::nullopt);
}

// ---- blocking producer API ----

namespace {
template <class T, class Comp>
std::function<void(std::optional<T>)> completion_cb(std::shared_ptr<Comp> c) {
  return [c](std::optional<T> v) {
    if (v.has_value()) {
      c->fulfill(std::move(*v));
    } else {
      c->abort();
    }
  };
}
}  // namespace

std::optional<ProtocolEngine::WriteResult> ProtocolEngine::write(
    causal::VarId x, std::string data, bool local_replica) {
  auto comp = std::make_shared<Completion<WriteResult>>();
  submit_write(x, std::move(data), local_replica,
               completion_cb<WriteResult>(comp), /*bounded=*/true);
  return comp->wait();
}

std::optional<causal::Value> ProtocolEngine::read(causal::VarId x) {
  auto comp = std::make_shared<Completion<causal::Value>>();
  submit_read(x, completion_cb<causal::Value>(comp), /*bounded=*/true);
  return comp->wait();
}

std::optional<std::vector<causal::Value>> ProtocolEngine::snapshot(
    const std::vector<causal::VarId>& xs) {
  auto comp = std::make_shared<Completion<std::vector<causal::Value>>>();
  submit_snapshot(xs, completion_cb<std::vector<causal::Value>>(comp),
                  /*bounded=*/true);
  return comp->wait();
}

std::optional<std::vector<std::uint8_t>> ProtocolEngine::coverage_token(
    causal::SiteId target) {
  auto comp = std::make_shared<Completion<std::vector<std::uint8_t>>>();
  submit_token(target, completion_cb<std::vector<std::uint8_t>>(comp),
               /*bounded=*/true);
  return comp->wait();
}

std::optional<bool> ProtocolEngine::wait_covered(
    std::vector<std::uint8_t> token, std::uint64_t wait_us) {
  auto comp = std::make_shared<Completion<bool>>();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(wait_us);
  submit_covered(std::move(token), /*has_deadline=*/true, deadline,
                 completion_cb<bool>(comp), /*bounded=*/true);
  return comp->wait();
}

std::optional<bool> ProtocolEngine::wait_covered(
    std::vector<std::uint8_t> token) {
  auto comp = std::make_shared<Completion<bool>>();
  submit_covered(std::move(token), /*has_deadline=*/false, {},
                 completion_cb<bool>(comp), /*bounded=*/true);
  return comp->wait();
}

// ---- async producer API ----

void ProtocolEngine::async_write(causal::VarId x, std::string data,
                                 bool local_replica, WriteCb cb) {
  submit_write(x, std::move(data), local_replica, std::move(cb),
               /*bounded=*/false);
}

void ProtocolEngine::async_read(causal::VarId x, ReadCb cb) {
  submit_read(x, std::move(cb), /*bounded=*/false);
}

void ProtocolEngine::async_snapshot(std::vector<causal::VarId> xs,
                                    SnapshotCb cb) {
  submit_snapshot(std::move(xs), std::move(cb), /*bounded=*/false);
}

void ProtocolEngine::async_token(causal::SiteId target, TokenCb cb) {
  submit_token(target, std::move(cb), /*bounded=*/false);
}

void ProtocolEngine::async_covered(std::vector<std::uint8_t> token,
                                   std::uint64_t wait_us, CoveredCb cb) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(wait_us);
  submit_covered(std::move(token), /*has_deadline=*/true, deadline,
                 std::move(cb), /*bounded=*/false);
}

void ProtocolEngine::post_covered_callback(std::vector<std::uint8_t> token,
                                           CoveredCb cb, bool bounded) {
  submit_covered(std::move(token), /*has_deadline=*/false, {}, std::move(cb),
                 bounded);
}

// ---- status / metrics ----

template <class T>
std::optional<T> ProtocolEngine::inspect(std::function<T()> read) {
  auto comp = std::make_shared<Completion<T>>();
  if (enqueue(
          CmdKind::kStatus, [comp, read] { comp->fulfill(read()); },
          /*bounded=*/true)) {
    return comp->wait();
  }
  // Stopped-and-joined engines are quiescent; tests read post-mortem
  // state this way. A stop() still in flight reports nullopt instead.
  // lifecycle_mu_ keeps the protocol quiescent for the whole read — a
  // concurrent start() would otherwise revive the apply thread between
  // the check and the read.
  std::lock_guard lifecycle(lifecycle_mu_);
  if (!quiescent()) return std::nullopt;
  return read();
}

std::optional<ProtocolEngine::StatusSnapshot> ProtocolEngine::status() {
  return inspect<StatusSnapshot>([this] {
    return StatusSnapshot{.writes = proto_metrics_->writes,
                          .reads = proto_metrics_->reads,
                          .pending_updates = proto_->pending_update_count()};
  });
}

std::optional<metrics::Metrics> ProtocolEngine::protocol_metrics() {
  return inspect<metrics::Metrics>([this] {
    metrics::Metrics m = *proto_metrics_;
    m.log_entries.set(proto_->log_entry_count());
    m.meta_state_bytes.set(proto_->meta_state_bytes());
    return m;
  });
}

std::optional<store::EngineStats> ProtocolEngine::store_stats() {
  return inspect<store::EngineStats>([this] { return proto_->store_stats(); });
}

std::optional<causal::Value> ProtocolEngine::peek(causal::VarId x) {
  return inspect<causal::Value>([this, x] { return proto_->peek(x); });
}

bool ProtocolEngine::quiescent() const {
  std::lock_guard lk(mu_);
  return proto_ != nullptr && !running_;
}

void ProtocolEngine::apply_message(net::Message msg, bool bounded) {
  const CmdKind kind = (msg.kind == net::MsgKind::kCatchupReq ||
                        msg.kind == net::MsgKind::kCatchupResp)
                           ? CmdKind::kCatchup
                           : CmdKind::kApplyUpdate;
  enqueue(
      kind,
      [this, msg = std::move(msg)]() mutable {
        if (durability_) {
          durability_->on_inbound(proto_.get(), std::move(msg));
        } else {
          proto_->on_message(msg);
        }
      },
      bounded);
}

void ProtocolEngine::post_timer(std::function<void()> fn) {
  enqueue(CmdKind::kTimer, std::move(fn), /*bounded=*/true);
}

void ProtocolEngine::post_catchup_tick() {
  if (!durability_) return;
  enqueue(
      CmdKind::kCatchup, [this] { durability_->tick(proto_.get()); },
      /*bounded=*/true);
}

void ProtocolEngine::protocol_send(net::Message msg) {
  CCPR_EXPECTS(durability_ != nullptr);
  durability_->on_protocol_send(std::move(msg));
}

void ProtocolEngine::persist_meta_merge(causal::VarId x,
                                        causal::SiteId responder,
                                        const std::uint8_t* data,
                                        std::size_t len) {
  if (durability_) durability_->on_meta_merge(x, responder, data, len);
}

std::optional<Durability::Stats> ProtocolEngine::durability_stats() {
  if (!durability_) return Durability::Stats{};
  return inspect<Durability::Stats>([this] { return durability_->stats(); });
}

std::optional<Durability::CatchupProgress> ProtocolEngine::catchup_progress() {
  if (!durability_) return Durability::CatchupProgress{};
  return inspect<Durability::CatchupProgress>(
      [this] { return durability_->progress(); });
}

ProtocolEngine::QueueStats ProtocolEngine::queue_stats() const {
  std::lock_guard lk(mu_);
  QueueStats s;
  s.depth = queue_.size();
  s.capacity = opts_.queue_capacity;
  s.peak_depth = peak_depth_;
  s.producer_waits = producer_waits_;
  s.parked_reads = parked_reads_gauge_.load(std::memory_order_relaxed);
  s.covered_waiters = covered_waiters_gauge_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kCmdKinds; ++i) s.enqueued[i] = enqueued_[i];
  return s;
}

void ProtocolEngine::loop() {
  // Publish recovered/initial state before serving anything: with a
  // batch-end hook installed (sharded site), peers must be able to learn
  // this shard's post-recovery coverage from the very first wrapped send.
  if (batch_end_hook_) batch_end_hook_(*proto_);
  std::deque<Cmd> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock lk(mu_);
      const auto ready = [&] { return !queue_.empty() || stop_requested_; };
      if (!ready()) {
        bool have_deadline = false;
        auto deadline = std::chrono::steady_clock::time_point::max();
        for (const CoveredWaiter& w : covered_waiters_) {
          if (!w.has_deadline) continue;
          have_deadline = true;
          deadline = std::min(deadline, w.deadline);
        }
        if (have_deadline) {
          cv_consume_.wait_until(lk, deadline, ready);
        } else {
          cv_consume_.wait(lk, ready);
        }
      }
      if (queue_.empty() && stop_requested_) break;
      batch.swap(queue_);
      cv_produce_.notify_all();
    }

    // Peer sends and client responses queue at once, but their wake-ups
    // (sender-thread notify, reactor eventfd) go out once per target when
    // the batch and its callbacks are done, not once per message.
    net::WakeBatch wakes;
    in_batch_ = true;
    bool coverage_dirty = false;
    for (Cmd& cmd : batch) {
      cmd.run();
      // Local writes, peer applies and timer callbacks can all advance the
      // applied frontier that covered_by inspects. Local reads (and
      // snapshots) change the coverage token too: they merge the read
      // write's dependencies into the site's metadata, and a session that
      // read them must not then send a cross-shard update without them.
      coverage_dirty = coverage_dirty || cmd.kind == CmdKind::kWrite ||
                       cmd.kind == CmdKind::kRead ||
                       cmd.kind == CmdKind::kSnapshot ||
                       cmd.kind == CmdKind::kApplyUpdate ||
                       cmd.kind == CmdKind::kTimer;
    }
    // Publish-before-fulfill: the hook runs while every callback this batch
    // produced is still deferred, so anything a session learns from those
    // callbacks is already reflected in the published coverage tokens.
    if (coverage_dirty && batch_end_hook_) batch_end_hook_(*proto_);
    if (!parked_reads_.empty()) {
      parked_reads_.erase(
          std::remove_if(parked_reads_.begin(), parked_reads_.end(),
                         [](const auto& st) { return st->fired; }),
          parked_reads_.end());
    }
    if (!covered_waiters_.empty()) recheck_covered_waiters(!coverage_dirty);
    in_batch_ = false;
    if (!deferred_.empty()) {
      std::vector<std::function<void()>> fire;
      fire.swap(deferred_);
      for (auto& fn : fire) fn();
    }
    parked_reads_gauge_.store(parked_reads_.size(), std::memory_order_relaxed);
    covered_waiters_gauge_.store(covered_waiters_.size(),
                                 std::memory_order_relaxed);
  }
  abort_parked();
}

void ProtocolEngine::recheck_covered_waiters(bool expire_only) {
  // One compacting pass: a backlog of sharded envelope gates can park many
  // waiters at once, and erasing them one by one would be quadratic.
  const auto now = std::chrono::steady_clock::now();
  std::erase_if(covered_waiters_, [&](const CoveredWaiter& w) {
    const bool expired = w.has_deadline && now >= w.deadline;
    if (expire_only && !expired) return false;
    if (proto_->covered_by(w.token)) {
      defer([cb = w.cb] { (*cb)(true); });
      return true;
    }
    if (expired) {
      defer([cb = w.cb] { (*cb)(false); });
      return true;
    }
    return false;
  });
}

void ProtocolEngine::abort_parked() {
  for (const auto& st : parked_reads_) {
    if (!st->fired) st->cb(std::nullopt);
  }
  parked_reads_.clear();
  for (const CoveredWaiter& w : covered_waiters_) (*w.cb)(std::nullopt);
  covered_waiters_.clear();
  parked_reads_gauge_.store(0, std::memory_order_relaxed);
  covered_waiters_gauge_.store(0, std::memory_order_relaxed);
}

}  // namespace ccpr::server
