// Real-network transport: the third ITransport implementation, carrying the
// same net::Message envelope between OS processes over TCP sockets.
//
// One TcpTransport instance serves exactly one site (unlike the in-process
// transports, which host all sites): `connect()` attaches the local sink and
// `send()` routes by msg.dst to a per-peer connection. Design:
//
//   * Frames are length-prefixed (net/frame.hpp), bounds-checked on decode,
//     and capped at a configurable maximum size.
//   * One sender thread per peer owns that peer's outbound TCP connection.
//     Messages queue per peer; each wakeup the thread drains as much of the
//     queue as fits the batch limits (max_batch_bytes / max_batch_msgs) and
//     flushes the coalesced frames with one writev, so a backlog costs one
//     syscall per batch instead of one per frame. The thread dials lazily,
//     retries with exponential backoff plus jitter, and resends the
//     in-flight batch after a connection loss. Per-channel sequence numbers
//     let the receiver drop the duplicates this can produce, so each
//     (src, dst) channel stays FIFO and at-most-once for the lifetime of
//     both endpoints. Each frame also carries the sender's per-process
//     incarnation nonce; a receiver resets its seq watermark when the
//     incarnation changes, so a restarted peer (whose seq space restarts
//     at 1) is not mistaken for a duplicate stream and rejoins cleanly.
//   * Per-peer queues are capped (max_queue_msgs) with a drop-oldest
//     overflow policy: send() never blocks. The producer is the site's
//     apply thread, so parking it on a peer that is not draining (dead or
//     partitioned) would freeze the whole site — every client op and every
//     inbound apply — and deadlock shutdown, which joins the apply thread
//     before tearing the transport down. At the cap the oldest queued
//     message is dropped and counted (PeerStats::overflow_drops): the cap
//     bounds memory and staleness, not delivery. The inbound delivery
//     queue stays unbounded on purpose: readers must never block, or two
//     saturated sites could deadlock through their full kernel buffers
//     (see docs/RUNTIMES.md, threading model).
//   * Inbound, an accept thread spawns one reader thread per connection.
//     A reader reads whatever the socket holds into a small buffer, decodes
//     every complete frame in it and pushes them onto a single delivery
//     queue under one lock with one notify; a dedicated delivery thread
//     takes the whole queue per wakeup, so deliveries to the sink never
//     overlap and a batch of frames costs one read and one wake.
//   * send() queues at once but routes its sender-thread notify through
//     net::WakeBatch: inside an apply-thread batch the notify waits for the
//     batch end, so one batch of sends wakes each sender thread once.
//   * A process crash loses whatever that process had queued or applied;
//     messages queued toward a dead peer are retained up to the queue cap
//     and delivered once the peer comes back (with its state reset — the
//     protocol layer decides what that means). A peer down long enough to
//     overflow its queue misses the dropped updates — within the crash
//     model, since without persistence a restarted site returns empty and
//     rejoins under a fresh incarnation anyway. See docs/RUNTIMES.md for
//     the guarantee matrix.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/chaos.hpp"
#include "net/frame.hpp"
#include "net/message.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace ccpr::net {

class TcpTransport final : public ITransport {
 public:
  struct Peer {
    SiteId site = 0;
    std::string host;
    std::uint16_t port = 0;
  };

  struct Options {
    SiteId self = 0;
    std::string listen_host = "127.0.0.1";
    /// 0 lets the kernel pick; read the result from listen_port().
    std::uint16_t listen_port = 0;
    /// Remote sites this one may send to (entries for `self` are ignored).
    std::vector<Peer> peers;
    std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Reconnect backoff: initial delay, doubled per failure up to the max,
    /// each scaled by a uniform jitter in [0.5, 1.5).
    std::uint32_t backoff_initial_ms = 10;
    std::uint32_t backoff_max_ms = 1000;
    std::uint64_t jitter_seed = 0x7cb1e;
    /// Per-process-instance nonce stamped into every outbound frame so
    /// receivers can tell a restarted sender from a duplicate stream.
    /// 0 (the default) draws a random nonzero nonce at construction;
    /// set explicitly only in tests that need determinism.
    std::uint64_t incarnation = 0;
    /// Sender batching: coalesce queued frames into one writev flush up to
    /// this many bytes (a single frame always goes out regardless of its
    /// size). 1 effectively disables batching — one frame per syscall.
    std::uint32_t max_batch_bytes = 256 * 1024;
    /// Upper bound on frames per writev flush.
    std::uint32_t max_batch_msgs = 64;
    /// Cap on messages queued per peer. send() never blocks: at the cap
    /// the oldest queued message is dropped and counted (see the overflow
    /// policy in the header comment). 0 = unbounded.
    std::uint32_t max_queue_msgs = 65536;
    /// Seed for chaos-injection drop decisions (net/chaos.hpp). Per-link
    /// streams are derived from it, so a run is deterministic given the
    /// same send sequence.
    std::uint64_t chaos_seed = 0xc4a05;
  };

  /// Per-peer wire counters (sent side from the sender thread, received
  /// side keyed by the src field of inbound frames).
  struct PeerStats {
    SiteId site = 0;
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t msgs_recv = 0;
    std::uint64_t bytes_recv = 0;
    std::uint64_t reads = 0;       ///< inbound read syscalls that got data
    std::uint64_t dup_drops = 0;   ///< frames discarded by seq dedup
    std::uint64_t connects = 0;    ///< successful dials (first + re-dials)
    std::uint64_t queued = 0;      ///< messages currently waiting to send
    std::uint64_t incarnation_resets = 0;  ///< peer restarts observed
    std::uint64_t batches_sent = 0;  ///< writev flushes (≥1 frame each)
    std::uint64_t overflow_drops = 0;  ///< oldest msgs dropped at the cap
    std::uint64_t queue_cap = 0;     ///< configured cap (0 = unbounded)
    bool connected = false;  ///< outbound socket currently established
    std::uint64_t chaos_drops = 0;     ///< outbound msgs dropped by chaos
    std::uint64_t chaos_rx_drops = 0;  ///< inbound frames dropped by chaos
    std::uint64_t chaos_delayed = 0;   ///< msgs assigned a future due time
    bool chaos_active = false;  ///< a chaos rule is installed on this link
    bool chaos_partitioned = false;  ///< that rule blackholes the link
  };

  TcpTransport(Options opts, metrics::Metrics& metrics);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Only the local site may attach (this transport is one endpoint).
  void connect(SiteId site, IMessageSink* sink) override;
  void send(Message msg) override;

  /// Bind the listen socket and launch the I/O threads. Returns false if
  /// the listen address could not be bound (the transport stays stopped).
  bool start();
  /// Graceful shutdown: close connections, join every thread. Messages not
  /// yet written to a socket are dropped (call flush() first if they
  /// matter); messages already queued for delivery are delivered.
  void stop();

  /// Wait until every outbound queue has drained into the kernel's send
  /// buffers. Returns false on timeout (e.g. an unreachable peer).
  bool flush(std::chrono::milliseconds timeout);

  std::uint16_t listen_port() const noexcept { return listen_port_; }
  SiteId self() const noexcept { return opts_.self; }
  bool started() const noexcept { return started_; }

  std::vector<PeerStats> peer_stats() const;
  /// Copy of the transport-level counters, safe to call concurrently.
  metrics::Metrics metrics_snapshot() const;

  /// Install a chaos rule on the link to `peer` (replacing any previous
  /// rule; a default-constructed rule clears it). Thread-safe; takes effect
  /// on subsequent sends and, for partition, on queued traffic immediately.
  /// Unknown / self peer ids are ignored.
  void set_chaos(SiteId peer, const ChaosRule& rule);
  /// Remove every installed chaos rule and release held traffic.
  void clear_chaos();
  /// The rule currently installed toward `peer` ({} if none/unknown).
  ChaosRule chaos_rule(SiteId peer) const;

 private:
  struct Outbound {
    Message msg;
    std::uint64_t seq = 0;
    /// Earliest flush time, pushed into the future by chaos delay / rate
    /// pacing. Monotone non-decreasing within one queue (FIFO preserved).
    std::chrono::steady_clock::time_point due{};
  };

  /// State for one outbound peer connection, owned by its sender thread.
  struct Link {
    SiteId site = 0;
    std::string host;
    std::uint16_t port = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Outbound> queue;
    /// Messages the sender thread has popped off the queue and owns while
    /// it writes (and retries) them. Guarded by mu; counted into the
    /// `queued` stat and awaited by flush().
    std::size_t inflight = 0;
    std::uint64_t next_seq = 0;
    Socket sock;  // open/close/shutdown under mu; writes from sender thread
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t connects = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t overflow_drops = 0;
    // Chaos injection (guarded by mu). `chaos_rx_drops` counts inbound
    // frames from this peer discarded while partitioned — written by reader
    // threads, so it shares the same lock.
    ChaosRule chaos;
    util::Rng chaos_rng{0};
    std::chrono::steady_clock::time_point last_due{};
    std::uint64_t chaos_drops = 0;
    std::uint64_t chaos_rx_drops = 0;
    std::uint64_t chaos_delayed = 0;
    std::thread thread;
  };

  /// One accepted inbound connection and its reader thread.
  struct InConn {
    std::mutex mu;  ///< guards sock fd lifecycle (reader close vs stop)
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct RecvStats {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t reads = 0;
    std::uint64_t dup_drops = 0;
    /// Watermark of the highest seq seen, valid only within `incarnation`:
    /// when a frame arrives from a new sender incarnation the watermark
    /// resets, so a restarted peer's fresh seq space is not deduplicated
    /// against the dead process's.
    std::uint64_t last_seq = 0;
    std::uint64_t incarnation = 0;
    std::uint64_t incarnation_resets = 0;
  };

  void accept_loop();
  void reader_loop(InConn* conn);
  void sender_loop(Link* link);
  void delivery_loop();
  /// WakeBatch target: notify a link's sender thread.
  static void wake_sender(void* link);
  Link* link_for(SiteId site) const;

  Options opts_;
  metrics::Metrics& metrics_;
  mutable std::mutex metrics_mu_;

  IMessageSink* sink_ = nullptr;
  std::uint16_t listen_port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  Socket listen_sock_;
  std::thread accept_thread_;
  std::thread delivery_thread_;

  std::vector<std::unique_ptr<Link>> links_;  // fixed after construction

  std::uint64_t incarnation_ = 0;  // fixed after construction, nonzero

  mutable std::mutex in_mu_;
  std::condition_variable in_cv_;
  bool in_closed_ = false;  ///< set once no producer can enqueue again
  std::deque<Message> in_queue_;
  std::unordered_map<SiteId, RecvStats> recv_;  // guarded by in_mu_

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<InConn>> conns_;
};

}  // namespace ccpr::net
