// Reactor: epoll-based client-connection I/O for a site server.
//
// Replaces the thread-per-connection client path. A handful of event-loop
// threads (`io_threads`, default 2) each run an epoll loop over non-blocking
// sockets; loop 0 additionally owns the listener and deals accepted
// connections round-robin across loops. The reactor owns exactly three
// things: frame assembly (the [u32 len][body] client framing), ordered
// response delivery, and accept-storm backoff. Everything else — request
// semantics, covered-wait deadlines, admission control beyond the per-conn
// in-flight cap — lives behind the request handler (the protocol engines
// already park and time out waits on their own apply threads).
//
// Data flow: a readable socket is drained into the connection's read
// buffer; each complete frame gets the connection's next request sequence
// number and is handed to the RequestHandler *on the loop thread*. The
// handler must not block — it enqueues async engine commands and returns.
// Completions (on apply threads, admin executors, anywhere) call
// send_response(ref, body); the reactor marshals that onto the owning loop
// via its pending-op queue + eventfd, buffers out-of-order completions, and
// releases responses strictly in request order per connection (clients
// pipeline frames and match responses positionally).
//
// Batching: only the op that makes a loop's queue non-empty writes its
// eventfd, and inside an apply-thread batch even that write waits for the
// batch end (net/wake_batch.hpp). The loop drains every queued op, then
// writes each connection that got responses once, with one writev over all
// of its released frames; a partial write keeps the rest queued behind
// EPOLLOUT.
//
// Backpressure: a connection with `max_inflight` unanswered requests stops
// being read (EPOLLIN interest dropped) until responses drain — a client
// flooding one connection stalls itself, not the loop. Accept storms under
// fd exhaustion (EMFILE and friends) deregister the listener for
// `accept_backoff_ms` instead of spinning; pending connections stay in the
// kernel backlog.
//
// Connection ids are 64-bit and never reused, so a stale ConnRef held by a
// slow engine callback simply misses the lookup and the response is
// dropped — the disconnect-vs-response race needs no generation counter.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace ccpr::net {

class Reactor {
 public:
  struct Options {
    /// Event-loop threads. Loop 0 also accepts.
    std::uint32_t io_threads = 2;
    std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Unanswered requests per connection before reads pause.
    std::uint32_t max_inflight = 128;
    /// Listener re-arm delay after fd exhaustion.
    std::uint32_t accept_backoff_ms = 100;
  };

  /// Names one request on one connection. Valid to hold across threads;
  /// after the connection dies the ref is harmlessly stale.
  struct ConnRef {
    std::uint32_t loop = 0;
    std::uint64_t conn = 0;
    std::uint64_t seq = 0;
  };

  /// Runs on the loop thread with one decoded frame body. Must not block.
  using RequestHandler =
      std::function<void(const ConnRef&, std::vector<std::uint8_t>)>;

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t active = 0;          ///< open connections right now
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t flushes = 0;         ///< writev calls (≥1 frame each)
    std::uint64_t accept_backoffs = 0; ///< fd-exhaustion listener parks
    std::uint64_t conns_dropped = 0;   ///< closed on protocol/socket error
    std::uint64_t late_responses = 0;  ///< response for a dead connection
  };

  /// Takes ownership of a listening socket (from tcp_listen).
  Reactor(Socket listener, Options opts, RequestHandler on_request);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  bool start();
  /// Stops the loops, closes every connection, joins the threads.
  /// send_response stays safe to call during and after (drops + counts).
  void stop();

  /// Complete request `ref` with `body` (unframed; the reactor adds the
  /// length prefix). Thread-safe, never blocks beyond a short mutex.
  void send_response(const ConnRef& ref, std::vector<std::uint8_t> body);

  Stats stats() const;

 private:
  struct Conn {
    Socket sock;
    std::uint64_t id = 0;
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;  ///< parsed prefix of rbuf
    std::deque<std::vector<std::uint8_t>> wq;  ///< framed, in order
    std::size_t woff = 0;  ///< bytes of wq.front() already written
    std::uint64_t next_req_seq = 0;
    std::uint64_t next_send_seq = 0;
    /// Completed-out-of-order responses (framed), keyed by seq.
    std::map<std::uint64_t, std::vector<std::uint8_t>> held;
    std::uint32_t inflight = 0;
    bool want_write = false;
    bool paused = false;  ///< EPOLLIN interest dropped (in-flight cap)
    bool dirty = false;   ///< listed in Loop::dirty
  };

  struct Loop {
    std::uint32_t idx = 0;
    int ep = -1;
    int wake = -1;  ///< eventfd
    std::thread thread;
    std::mutex mu;
    bool closed = false;              ///< guarded by mu
    std::vector<std::function<void()>> ops;  ///< guarded by mu
    /// Loop-thread-only from here down.
    std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
    /// Connections with responses released since the last flush.
    std::vector<std::uint64_t> dirty;
    std::vector<std::pair<std::chrono::steady_clock::time_point,
                          std::function<void()>>>
        timers;
  };

  void run(std::uint32_t idx);
  /// Queue `op` for loop `idx`; false (op dropped) once the loop closed.
  bool post(std::uint32_t idx, std::function<void()> op);
  /// WakeBatch target: write a loop's eventfd unless the loop closed.
  static void wake_loop(void* loop);
  void accept_ready(Loop& loop);
  void add_conn(Loop& loop, Socket sock);
  void conn_readable(Loop& loop, Conn& c);
  void conn_writable(Loop& loop, Conn& c);
  void flush_dirty(Loop& loop);
  void flush_writes(Loop& loop, Conn& c);
  void release_ready(Loop& loop, Conn& c);
  void update_events(Loop& loop, Conn& c);
  void close_conn(Loop& loop, std::uint64_t id, bool error);
  int next_timeout_ms(Loop& loop) const;
  void run_due_timers(Loop& loop);

  Options opts_;
  Socket listener_;
  RequestHandler on_request_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::uint32_t> rr_{0};  ///< round-robin accept target

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> accept_backoffs_{0};
  std::atomic<std::uint64_t> conns_dropped_{0};
  std::atomic<std::uint64_t> late_responses_{0};
};

}  // namespace ccpr::net
