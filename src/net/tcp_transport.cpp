#include "net/tcp_transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>
#include <string>
#include <utility>

#include "net/wake_batch.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_name.hpp"

namespace ccpr::net {

namespace {

/// Nonzero per-process-instance nonce. Entropy comes from the OS, not the
/// clock, so two sites started in the same tick still differ.
std::uint64_t draw_incarnation() {
  std::random_device rd;
  std::uint64_t nonce = 0;
  do {
    nonce = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  } while (nonce == 0);
  return nonce;
}

/// Inbound read size. Loopback batches of update frames are a few KiB, so
/// one read takes a whole batch; a larger frame grows the buffer for as long
/// as it takes to assemble it. Kept small: every reader thread holds one.
constexpr std::size_t kReadChunk = 8 * 1024;

/// A checked inbound frame and its size on the wire (length prefix too).
struct Parsed {
  Frame frame;
  std::size_t wire_bytes = 0;
};

}  // namespace

TcpTransport::TcpTransport(Options opts, metrics::Metrics& metrics)
    : opts_(std::move(opts)), metrics_(metrics) {
  CCPR_EXPECTS(opts_.max_frame_bytes > 0);
  CCPR_EXPECTS(opts_.backoff_initial_ms > 0);
  if (opts_.max_batch_bytes == 0) opts_.max_batch_bytes = 1;
  if (opts_.max_batch_msgs == 0) opts_.max_batch_msgs = 1;
  incarnation_ =
      opts_.incarnation != 0 ? opts_.incarnation : draw_incarnation();
  for (const Peer& peer : opts_.peers) {
    if (peer.site == opts_.self) continue;
    auto link = std::make_unique<Link>();
    link->site = peer.site;
    link->host = peer.host;
    link->port = peer.port;
    link->chaos_rng = util::Rng(opts_.chaos_seed ^
                                (0x9e3779b97f4a7c15ULL * (peer.site + 1)));
    links_.push_back(std::move(link));
  }
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::connect(SiteId site, IMessageSink* sink) {
  CCPR_EXPECTS(site == opts_.self);
  CCPR_EXPECTS(sink != nullptr);
  CCPR_EXPECTS(!started_);
  sink_ = sink;
}

bool TcpTransport::start() {
  CCPR_EXPECTS(!started_);
  CCPR_EXPECTS(sink_ != nullptr);
  listen_sock_ =
      tcp_listen(opts_.listen_host, opts_.listen_port, &listen_port_);
  if (!listen_sock_.valid()) return false;
  stopping_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lk(in_mu_);
    in_closed_ = false;
  }
  started_ = true;
  accept_thread_ = std::thread([this] {
    util::set_thread_name("peer-accept");
    accept_loop();
  });
  delivery_thread_ = std::thread([this] {
    util::set_thread_name("deliver");
    delivery_loop();
  });
  for (auto& link : links_) {
    link->thread = std::thread([this, l = link.get()] {
      util::set_thread_name("peer-tx-" + std::to_string(l->site));
      sender_loop(l);
    });
  }
  return true;
}

void TcpTransport::send(Message msg) {
  CCPR_EXPECTS(started_);
  CCPR_EXPECTS(msg.src == opts_.self);
  CCPR_EXPECTS(msg.payload_bytes <= msg.body.size());
  {
    std::lock_guard lk(metrics_mu_);
    switch (classify_kind(msg)) {
      case MsgKind::kUpdate:
        ++metrics_.update_msgs;
        break;
      case MsgKind::kFetchReq:
        ++metrics_.fetch_req_msgs;
        break;
      case MsgKind::kFetchResp:
        ++metrics_.fetch_resp_msgs;
        break;
      default:
        break;  // heartbeats / catch-up count only into the byte totals
    }
    metrics_.control_bytes += msg.control_bytes();
    metrics_.payload_bytes += msg.payload_bytes;
  }
  if (msg.dst == opts_.self) {
    // Loopback: straight onto the delivery queue (seq 0 bypasses dedup).
    std::lock_guard lk(in_mu_);
    in_queue_.push_back(std::move(msg));
    in_cv_.notify_one();
    return;
  }
  for (auto& link : links_) {
    if (link->site != msg.dst) continue;
    {
      std::lock_guard lk(link->mu);
      auto due = std::chrono::steady_clock::time_point{};
      if (link->chaos.active()) {
        // Lossy link: the message vanishes at enqueue, like on the wire.
        if (link->chaos.drop_milli != 0 &&
            link->chaos_rng.below(1000) < link->chaos.drop_milli) {
          ++link->chaos_drops;
          return;
        }
        // Slow link: push the flush time into the future. Clamped monotone
        // per link — reordering a channel would make the receiver's seq
        // dedup discard the late frames as duplicates.
        auto now = std::chrono::steady_clock::now();
        due = now;
        if (link->chaos.delay_us != 0) {
          due += std::chrono::microseconds(link->chaos.delay_us);
        }
        if (link->chaos.rate_per_s != 0) {
          const auto gap =
              std::chrono::microseconds(1'000'000 / link->chaos.rate_per_s);
          due = std::max(due, link->last_due + gap);
        }
        due = std::max(due, link->last_due);
        link->last_due = due;
        if (due > now) ++link->chaos_delayed;
        // Partition holds the queue at the sender loop, not here: traffic
        // keeps queueing (and overflow-dropping) as against a dead peer.
      }
      if (opts_.max_queue_msgs > 0 &&
          link->queue.size() >= opts_.max_queue_msgs) {
        // Overflow: drop the oldest queued message instead of blocking the
        // producer. The producer is the apply thread; parking it on a peer
        // that is not draining (dead or partitioned) would freeze every
        // client op and inbound apply on this site, and deadlock stop(),
        // which joins the apply thread before the transport shuts down.
        // The dropped update is lost to that peer — within the crash model
        // (no persistence yet: a peer down that long rejoins empty under a
        // fresh incarnation) — and the drop is counted.
        const std::size_t excess =
            link->queue.size() - opts_.max_queue_msgs + 1;
        link->queue.erase(
            link->queue.begin(),
            link->queue.begin() + static_cast<std::ptrdiff_t>(excess));
        link->overflow_drops += excess;
      }
      link->queue.push_back(Outbound{std::move(msg), ++link->next_seq, due});
    }
    // Inside an apply-thread batch this notify waits for the batch end, so
    // a batch of sends wakes the sender thread once.
    WakeBatch::wake(&TcpTransport::wake_sender, link.get());
    return;
  }
  CCPR_UNREACHABLE("send to unconfigured peer site");
}

void TcpTransport::wake_sender(void* link) {
  static_cast<Link*>(link)->cv.notify_all();
}

void TcpTransport::sender_loop(Link* link) {
  util::Rng jitter(opts_.jitter_seed ^
                   (0x9e3779b97f4a7c15ULL * (link->site + 1)));
  std::uint32_t backoff_ms = opts_.backoff_initial_ms;
  std::vector<Outbound> batch;                    // owned in-flight batch
  std::vector<std::vector<std::uint8_t>> frames;  // encoded batch
  std::vector<WriteSpan> spans;
  while (true) {
    // Pop a batch off the queue head. The batch is *owned* by this thread
    // from here on — send()'s drop-oldest overflow may erase queue
    // elements at any time, so no reference into the queue can outlive the
    // lock. A failed write retries the owned batch, never losing it.
    // Batch sizing uses the body length plus a fixed header allowance as a
    // frame-size proxy: close enough to bound the writev, and it keeps the
    // 64-frame encode out of the critical section (holding the lock across
    // it would stall every producer, the apply thread above all).
    batch.clear();
    frames.clear();
    {
      std::unique_lock lk(link->mu);
      for (;;) {
        if (stopping_.load(std::memory_order_relaxed)) return;
        // A partition rule parks the sender with the queue intact — the
        // link behaves like TCP into a blackhole until the rule is lifted.
        if (link->queue.empty() || link->chaos.partition) {
          link->cv.wait(lk);
          continue;
        }
        const auto now = std::chrono::steady_clock::now();
        if (link->queue.front().due > now) {
          // Chaos delay / rate pacing: nothing is due yet. wait_until
          // returns on heal/stop notifications too; re-evaluate then.
          link->cv.wait_until(lk, link->queue.front().due);
          continue;
        }
        break;
      }
      const auto now = std::chrono::steady_clock::now();
      std::size_t est_bytes = 0;
      while (!link->queue.empty() && batch.size() < opts_.max_batch_msgs &&
             (batch.empty() || est_bytes < opts_.max_batch_bytes) &&
             link->queue.front().due <= now) {
        est_bytes += link->queue.front().msg.body.size() + 48;
        batch.push_back(std::move(link->queue.front()));
        link->queue.pop_front();
      }
      link->inflight = batch.size();
    }
    spans.clear();
    std::size_t batch_wire_bytes = 0;
    for (const Outbound& out : batch) {
      frames.push_back(encode_frame(out.msg, incarnation_, out.seq));
    }
    for (const auto& f : frames) {
      spans.push_back(WriteSpan{f.data(), f.size()});
      batch_wire_bytes += f.size();
    }
    // Exponential backoff with jitter; stop-aware sleep. Applied on any
    // iteration that makes no progress — a failed dial, but also a failed
    // write (a peer mid-restart can accept and immediately reset, which
    // would otherwise spin dial/write/close at full speed).
    const auto backoff_sleep = [&] {
      const auto base = static_cast<std::uint64_t>(backoff_ms);
      const std::uint64_t wait_ms = base / 2 + jitter.below(base + 1);
      backoff_ms = std::min(backoff_ms * 2, opts_.backoff_max_ms);
      std::unique_lock lk(link->mu);
      link->cv.wait_for(lk, std::chrono::milliseconds(wait_ms), [&] {
        return stopping_.load(std::memory_order_relaxed);
      });
    };
    bool sent = false;
    while (!sent && !stopping_.load(std::memory_order_relaxed)) {
      int fd = -1;
      {
        std::lock_guard lk(link->mu);
        fd = link->sock.fd();
      }
      if (fd < 0) {
        Socket sock = tcp_dial(link->host, link->port);
        if (!sock.valid()) {
          backoff_sleep();
          continue;
        }
        std::lock_guard lk(link->mu);
        link->sock = std::move(sock);
        ++link->connects;
        fd = link->sock.fd();
      }
      if (write_all_vec(fd, spans.data(), spans.size())) {
        sent = true;
        // Only frames on the wire count as progress; a successful dial
        // alone does not reset the backoff.
        backoff_ms = opts_.backoff_initial_ms;
      } else {
        // Connection lost; drop the socket and retry the whole batch on a
        // fresh one. A prefix of it may have reached the peer — the
        // receiver's seq dedup absorbs the duplicates.
        {
          std::lock_guard lk(link->mu);
          link->sock.close();
        }
        backoff_sleep();
      }
    }
    {
      std::lock_guard lk(link->mu);
      link->inflight = 0;
      if (sent) {
        link->msgs_sent += frames.size();
        link->bytes_sent += batch_wire_bytes;
        ++link->batches_sent;
      }
    }
    // Wake flush() when the in-flight batch is resolved (on the wire, or
    // abandoned because the process is stopping).
    link->cv.notify_all();
    if (!sent) return;  // stopping
  }
}

void TcpTransport::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_sock_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      // A persistent errno (e.g. EMFILE) must not become a busy spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    auto conn = std::make_unique<InConn>();
    conn->sock = Socket(fd);
    InConn* raw = conn.get();
    std::lock_guard lk(conns_mu_);
    // Reap readers that finished (their peer disconnected) so a long-lived
    // process does not accumulate dead threads across reconnects.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    conn->thread = std::thread([this, raw] {
      util::set_thread_name("peer-rx");
      reader_loop(raw);
    });
    conns_.push_back(std::move(conn));
  }
}

TcpTransport::Link* TcpTransport::link_for(SiteId site) const {
  for (const auto& link : links_) {
    if (link->site == site) return link.get();
  }
  return nullptr;
}

void TcpTransport::set_chaos(SiteId peer, const ChaosRule& rule) {
  Link* link = link_for(peer);
  if (link == nullptr) return;
  {
    std::lock_guard lk(link->mu);
    link->chaos = rule;
    if (!rule.active()) link->last_due = {};
  }
  // Wake the sender: a lifted partition releases held traffic, a changed
  // delay re-evaluates the front due time.
  link->cv.notify_all();
}

void TcpTransport::clear_chaos() {
  for (auto& link : links_) {
    {
      std::lock_guard lk(link->mu);
      link->chaos = ChaosRule{};
      link->last_due = {};
    }
    link->cv.notify_all();
  }
}

ChaosRule TcpTransport::chaos_rule(SiteId peer) const {
  Link* link = link_for(peer);
  if (link == nullptr) return {};
  std::lock_guard lk(link->mu);
  return link->chaos;
}

void TcpTransport::reader_loop(InConn* conn) {
  // Bytes [pos, have) of buf are read but not yet parsed. Each read takes
  // what the kernel holds, up to the buffer's free space, and every complete
  // frame in it is checked and queued under one in_mu_ lock with one notify:
  // a writev batch from the peer costs one read and one wake, not two reads
  // per frame.
  std::vector<std::uint8_t> buf(kReadChunk);
  std::size_t have = 0;
  std::size_t pos = 0;
  const auto compact = [&] {
    std::memmove(buf.data(), buf.data() + pos, have - pos);
    have -= pos;
    pos = 0;
  };
  std::vector<Parsed> parsed;
  std::uint64_t reads = 0;  // not yet credited to a peer's RecvStats
  bool drop = false;        // a bad frame ends the connection
  while (!drop && !stopping_.load(std::memory_order_relaxed)) {
    if (pos == have) {
      pos = have = 0;
      // A large frame grew the buffer; give the memory back once it is
      // consumed.
      if (buf.size() > kReadChunk) {
        std::vector<std::uint8_t>(kReadChunk).swap(buf);
      }
    } else if (have == buf.size()) {
      compact();  // a partial length prefix at the very end
    }
    const ssize_t n =
        ::read(conn->sock.fd(), buf.data() + have, buf.size() - have);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF, reset, or shut down by stop()
    ++reads;
    have += static_cast<std::size_t>(n);

    parsed.clear();
    while (have - pos >= kFrameLenBytes) {
      const auto framed = decode_frame_size(buf.data() + pos, kFrameLenBytes,
                                            opts_.max_frame_bytes);
      if (!framed) {  // oversized or zero length: drop the connection
        drop = true;
        break;
      }
      const std::size_t wire_bytes = kFrameLenBytes + *framed;
      if (have - pos < wire_bytes) {
        // Incomplete: make room for the whole frame before reading on.
        if (pos + wire_bytes > buf.size()) {
          compact();
          if (wire_bytes > buf.size()) buf.resize(wire_bytes);
        }
        break;
      }
      auto frame =
          decode_frame_body(buf.data() + pos + kFrameLenBytes, *framed);
      pos += wire_bytes;
      // Malformed, misrouted or from an unknown site: drop the connection.
      Link* link = frame ? link_for(frame->msg.src) : nullptr;
      if (link == nullptr || frame->msg.dst != opts_.self) {
        drop = true;
        break;
      }
      {
        // Chaos partition blackholes the link from this site's point of
        // view: frames from the partitioned peer are read off the socket
        // and discarded before the seq-dedup bookkeeping, as if never
        // received.
        std::lock_guard lk(link->mu);
        if (link->chaos.partition) {
          ++link->chaos_rx_drops;
          continue;
        }
      }
      parsed.push_back(Parsed{std::move(*frame), wire_bytes});
    }
    // Frames parsed before a bad one are still delivered.
    if (parsed.empty()) continue;
    bool queued = false;
    {
      std::lock_guard lk(in_mu_);
      recv_[parsed.front().frame.msg.src].reads += reads;
      reads = 0;
      for (Parsed& p : parsed) {
        Frame& frame = p.frame;
        RecvStats& rs = recv_[frame.msg.src];
        if (frame.seq != 0) {
          if (frame.incarnation != rs.incarnation) {
            // New sender process instance: its seq space restarted, so
            // the old watermark is meaningless. Reset rather than dropping
            // the restarted site's traffic as "duplicates".
            if (rs.incarnation != 0) ++rs.incarnation_resets;
            rs.incarnation = frame.incarnation;
            rs.last_seq = 0;
          }
          if (frame.seq <= rs.last_seq) {
            ++rs.dup_drops;
            continue;
          }
          rs.last_seq = frame.seq;
        }
        ++rs.msgs;
        rs.bytes += p.wire_bytes;
        in_queue_.push_back(std::move(frame.msg));
        queued = true;
      }
    }
    if (queued) in_cv_.notify_one();
  }
  {
    // Close eagerly so a dead peer's fd is not held until the next reap,
    // under the conn mutex: stop() may be shutting the same socket down.
    std::lock_guard lk(conn->mu);
    if (drop) {
      // Reset, not FIN: the sender's next write then fails and it redials,
      // instead of writing into a half-closed socket whose bytes are lost.
      // (The reader may hold the whole bad frame, so close() alone would
      // find no unread data and send a FIN.)
      const linger abort{1, 0};
      ::setsockopt(conn->sock.fd(), SOL_SOCKET, SO_LINGER, &abort,
                   sizeof abort);
    }
    conn->sock.close();
  }
  conn->done.store(true, std::memory_order_release);
}

void TcpTransport::delivery_loop() {
  std::deque<Message> batch;
  while (true) {
    {
      std::unique_lock lk(in_mu_);
      // Exit only once stop() has joined every producer (readers and the
      // loopback path) and the queue is drained, so a message that made it
      // into the queue is always delivered.
      in_cv_.wait(lk, [&] { return !in_queue_.empty() || in_closed_; });
      if (in_queue_.empty()) return;  // closed and drained
      batch.swap(in_queue_);
    }
    for (Message& msg : batch) sink_->deliver(std::move(msg));
    batch.clear();
  }
}

bool TcpTransport::flush(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (auto& link : links_) {
    std::unique_lock lk(link->mu);
    const bool drained = link->cv.wait_until(lk, deadline, [&] {
      return (link->queue.empty() && link->inflight == 0) ||
             stopping_.load(std::memory_order_relaxed);
    });
    if (!drained || !link->queue.empty() || link->inflight != 0) {
      return false;
    }
  }
  return true;
}

void TcpTransport::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Unblock and join accept() first so no new reader can appear.
  listen_sock_.shutdown_both();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock and join the readers. They are the inbound producers, so only
  // after this point is the delivery queue complete.
  {
    std::lock_guard lk(conns_mu_);
    for (auto& conn : conns_) {
      std::lock_guard conn_lk(conn->mu);
      conn->sock.shutdown_both();
    }
  }
  {
    std::lock_guard lk(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    conns_.clear();
  }
  // Unblock senders (parked on their cv or mid-write/backoff) and join.
  for (auto& link : links_) {
    std::lock_guard lk(link->mu);
    link->sock.shutdown_both();
    link->cv.notify_all();
  }
  for (auto& link : links_) {
    if (link->thread.joinable()) link->thread.join();
    std::lock_guard lk(link->mu);
    link->sock.close();
  }
  // Every producer is gone: close the delivery queue so the delivery thread
  // drains what is queued and exits — messages that reached the queue are
  // delivered, never dropped.
  {
    std::lock_guard lk(in_mu_);
    in_closed_ = true;
  }
  in_cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  listen_sock_.close();
  started_ = false;
}

std::vector<TcpTransport::PeerStats> TcpTransport::peer_stats() const {
  std::vector<PeerStats> out;
  out.reserve(links_.size());
  for (const auto& link : links_) {
    PeerStats ps;
    ps.site = link->site;
    ps.queue_cap = opts_.max_queue_msgs;
    {
      std::lock_guard lk(link->mu);
      ps.msgs_sent = link->msgs_sent;
      ps.bytes_sent = link->bytes_sent;
      ps.connects = link->connects;
      ps.queued = link->queue.size() + link->inflight;
      ps.batches_sent = link->batches_sent;
      ps.overflow_drops = link->overflow_drops;
      ps.connected = link->sock.valid();
      ps.chaos_drops = link->chaos_drops;
      ps.chaos_rx_drops = link->chaos_rx_drops;
      ps.chaos_delayed = link->chaos_delayed;
      ps.chaos_active = link->chaos.active();
      ps.chaos_partitioned = link->chaos.partition;
    }
    {
      std::lock_guard lk(in_mu_);
      const auto it = recv_.find(link->site);
      if (it != recv_.end()) {
        ps.msgs_recv = it->second.msgs;
        ps.bytes_recv = it->second.bytes;
        ps.reads = it->second.reads;
        ps.dup_drops = it->second.dup_drops;
        ps.incarnation_resets = it->second.incarnation_resets;
      }
    }
    out.push_back(ps);
  }
  return out;
}

metrics::Metrics TcpTransport::metrics_snapshot() const {
  std::lock_guard lk(metrics_mu_);
  return metrics_;
}

}  // namespace ccpr::net
