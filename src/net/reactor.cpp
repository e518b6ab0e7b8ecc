#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "net/wake_batch.hpp"
#include "net/wire.hpp"
#include "util/assert.hpp"
#include "util/thread_name.hpp"

namespace ccpr::net {

namespace {

// epoll_event.data.u64 tags. Connection ids start above the reserved range.
constexpr std::uint64_t kTagWake = 0;
constexpr std::uint64_t kTagListener = 1;
constexpr std::uint64_t kFirstConnId = 2;

// Frames per writev; the default in-flight cap bounds a connection's
// released-but-unwritten responses to about this many.
constexpr std::size_t kMaxIov = 128;

}  // namespace

Reactor::Reactor(Socket listener, Options opts, RequestHandler on_request)
    : opts_(opts),
      listener_(std::move(listener)),
      on_request_(std::move(on_request)) {
  CCPR_EXPECTS(opts_.io_threads >= 1);
  CCPR_EXPECTS(on_request_ != nullptr);
  next_conn_id_.store(kFirstConnId, std::memory_order_relaxed);
}

Reactor::~Reactor() { stop(); }

bool Reactor::start() {
  CCPR_EXPECTS(!started_);
  if (!listener_.valid() || !set_nonblocking(listener_.fd())) return false;
  stopping_.store(false, std::memory_order_relaxed);
  loops_.clear();
  for (std::uint32_t i = 0; i < opts_.io_threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->idx = i;
    loop->ep = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (loop->ep < 0 || loop->wake < 0) {
      if (loop->ep >= 0) ::close(loop->ep);
      if (loop->wake >= 0) ::close(loop->wake);
      for (auto& l : loops_) {
        ::close(l->ep);
        ::close(l->wake);
      }
      loops_.clear();
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagWake;
    ::epoll_ctl(loop->ep, EPOLL_CTL_ADD, loop->wake, &ev);
    if (i == 0) {
      ev.events = EPOLLIN;
      ev.data.u64 = kTagListener;
      ::epoll_ctl(loop->ep, EPOLL_CTL_ADD, listener_.fd(), &ev);
    }
    loops_.push_back(std::move(loop));
  }
  for (std::uint32_t i = 0; i < opts_.io_threads; ++i) {
    loops_[i]->thread = std::thread([this, i] {
      util::set_thread_name("io-" + std::to_string(i));
      run(i);
    });
  }
  started_ = true;
  return true;
}

void Reactor::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    const std::uint64_t one = 1;
    std::lock_guard lk(loop->mu);
    if (!loop->closed) {
      [[maybe_unused]] const auto n =
          ::write(loop->wake, &one, sizeof one);
    }
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // The Loop objects stay until destruction: a wake deferred by another
  // thread's WakeBatch may still name one, and finds it closed.
  for (auto& loop : loops_) {
    std::lock_guard lk(loop->mu);
    loop->closed = true;
    loop->ops.clear();
    loop->conns.clear();  // closes every client socket
    ::close(loop->ep);
    ::close(loop->wake);
  }
  active_.store(0, std::memory_order_relaxed);
  listener_.close();
  started_ = false;
}

bool Reactor::post(std::uint32_t idx, std::function<void()> op) {
  Loop& loop = *loops_[idx];
  {
    std::lock_guard lk(loop.mu);
    if (loop.closed) return false;
    loop.ops.push_back(std::move(op));
    // Only the op that makes the queue non-empty wakes the loop: the loop
    // re-checks the queue under mu before it sleeps, so later ops ride on
    // the same wake. Inside an apply-thread batch the wake itself waits
    // for the batch end (net/wake_batch.hpp).
    if (loop.ops.size() != 1) return true;
  }
  WakeBatch::wake(&Reactor::wake_loop, &loop);
  return true;
}

void Reactor::wake_loop(void* target) {
  Loop& loop = *static_cast<Loop*>(target);
  std::lock_guard lk(loop.mu);
  if (loop.closed) return;  // eventfd already closed by stop()
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(loop.wake, &one, sizeof one);
}

void Reactor::send_response(const ConnRef& ref,
                            std::vector<std::uint8_t> body) {
  if (ref.loop >= loops_.size() ||
      stopping_.load(std::memory_order_relaxed)) {
    late_responses_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto op = [this, ref, body = std::move(body)]() mutable {
    Loop& l = *loops_[ref.loop];
    const auto it = l.conns.find(ref.conn);
    if (it == l.conns.end()) {
      late_responses_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Conn& c = *it->second;
    Encoder framed(body.size() + kFrameLenBytes);
    framed.u32(static_cast<std::uint32_t>(body.size()));
    framed.raw(body.data(), body.size());
    c.held.emplace(ref.seq, framed.take());
    release_ready(l, c);
    // Written once per drain by flush_dirty(), with every other response
    // this drain released on the connection.
    if (!c.dirty) {
      c.dirty = true;
      l.dirty.push_back(c.id);
    }
  };
  // A closed loop refuses the op: count it as the late response it is.
  if (!post(ref.loop, std::move(op))) {
    late_responses_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Reactor::run(std::uint32_t idx) {
  Loop& loop = *loops_[idx];
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int timeout = next_timeout_ms(loop);
    const int n = ::epoll_wait(loop.ep, events, kMaxEvents, timeout);
    if (n < 0 && errno != EINTR) break;
    // Drain marshalled ops first: response releases may re-arm EPOLLIN
    // before we process a stale readable event for a paused conn (harmless
    // either way, but this order keeps the in-flight cap tight).
    for (;;) {
      std::vector<std::function<void()>> ops;
      {
        std::lock_guard lk(loop.mu);
        ops.swap(loop.ops);
      }
      if (ops.empty()) break;
      for (auto& op : ops) op();
    }
    flush_dirty(loop);
    run_due_timers(loop);
    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kTagWake) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const auto r =
            ::read(loop.wake, &drain, sizeof drain);
        continue;
      }
      if (tag == kTagListener) {
        accept_ready(loop);
        continue;
      }
      const auto it = loop.conns.find(tag);
      if (it == loop.conns.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_conn(loop, tag, /*error=*/true);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) conn_writable(loop, c);
      // conn_writable may close on write error; re-check.
      if (loop.conns.count(tag) != 0 &&
          (events[i].events & EPOLLIN) != 0) {
        conn_readable(loop, c);
      }
    }
  }
}

int Reactor::next_timeout_ms(Loop& loop) const {
  {
    std::lock_guard lk(loop.mu);
    if (!loop.ops.empty()) return 0;
  }
  if (loop.timers.empty()) return -1;
  auto earliest = loop.timers.front().first;
  for (const auto& t : loop.timers) {
    if (t.first < earliest) earliest = t.first;
  }
  const auto now = std::chrono::steady_clock::now();
  if (earliest <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      earliest - now)
                      .count();
  return static_cast<int>(ms) + 1;
}

void Reactor::run_due_timers(Loop& loop) {
  if (loop.timers.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::function<void()>> due;
  for (auto it = loop.timers.begin(); it != loop.timers.end();) {
    if (it->first <= now) {
      due.push_back(std::move(it->second));
      it = loop.timers.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& fn : due) fn();
}

void Reactor::accept_ready(Loop& loop) {
  for (;;) {
    Socket sock;
    switch (tcp_accept(listener_.fd(), &sock)) {
      case AcceptResult::kOk: {
        if (!set_nonblocking(sock.fd())) break;  // drop this one
        accepted_.fetch_add(1, std::memory_order_relaxed);
        const std::uint32_t target =
            rr_.fetch_add(1, std::memory_order_relaxed) %
            static_cast<std::uint32_t>(loops_.size());
        if (&*loops_[target] == &loop) {
          add_conn(loop, std::move(sock));
        } else {
          // Socket moves through a shared_ptr: std::function must stay
          // copyable.
          auto held = std::make_shared<Socket>(std::move(sock));
          post(target, [this, target, held] {
            add_conn(*loops_[target], std::move(*held));
          });
        }
        break;
      }
      case AcceptResult::kRetryNow:
        break;
      case AcceptResult::kWouldBlock:
        return;
      case AcceptResult::kFdExhausted: {
        // Park the listener: pending connections wait in the kernel
        // backlog; spinning here would peg the loop without ever
        // succeeding until an fd frees up.
        accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        ::epoll_ctl(loop.ep, EPOLL_CTL_DEL, listener_.fd(), nullptr);
        loop.timers.emplace_back(
            std::chrono::steady_clock::now() +
                std::chrono::milliseconds(opts_.accept_backoff_ms),
            [this, &loop] {
              epoll_event ev{};
              ev.events = EPOLLIN;
              ev.data.u64 = kTagListener;
              ::epoll_ctl(loop.ep, EPOLL_CTL_ADD, listener_.fd(), &ev);
            });
        return;
      }
      case AcceptResult::kFatal:
        ::epoll_ctl(loop.ep, EPOLL_CTL_DEL, listener_.fd(), nullptr);
        return;
    }
  }
}

void Reactor::add_conn(Loop& loop, Socket sock) {
  auto conn = std::make_unique<Conn>();
  conn->sock = std::move(sock);
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(loop.ep, EPOLL_CTL_ADD, conn->sock.fd(), &ev) != 0) {
    conns_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  loop.conns.emplace(conn->id, std::move(conn));
}

void Reactor::conn_readable(Loop& loop, Conn& c) {
  const std::uint64_t id = c.id;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    if (c.paused) break;  // hit the in-flight cap mid-drain
    const ssize_t n = ::read(c.sock.fd(), buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(loop, id, /*error=*/true);
      return;
    }
    if (n == 0) {
      close_conn(loop, id, /*error=*/false);
      return;
    }
    c.rbuf.insert(c.rbuf.end(), buf, buf + n);
    // Parse complete frames.
    while (c.rbuf.size() - c.rpos >= kFrameLenBytes) {
      const auto size = decode_frame_size(c.rbuf.data() + c.rpos,
                                          kFrameLenBytes,
                                          opts_.max_frame_bytes);
      if (!size) {
        close_conn(loop, id, /*error=*/true);
        return;
      }
      if (c.rbuf.size() - c.rpos - kFrameLenBytes < *size) break;
      const auto* body = c.rbuf.data() + c.rpos + kFrameLenBytes;
      std::vector<std::uint8_t> frame(body, body + *size);
      c.rpos += kFrameLenBytes + *size;
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      ConnRef ref;
      ref.loop = loop.idx;
      ref.conn = c.id;
      ref.seq = c.next_req_seq++;
      ++c.inflight;
      if (c.inflight >= opts_.max_inflight && !c.paused) {
        c.paused = true;
        update_events(loop, c);
      }
      on_request_(ref, std::move(frame));
      // The handler may have completed synchronously and closed the conn
      // (engine stopped -> error path); bail if so.
      if (loop.conns.count(id) == 0) return;
    }
    // Compact once the parsed prefix dominates the buffer.
    if (c.rpos > 0 && (c.rpos >= c.rbuf.size() || c.rpos > 64 * 1024)) {
      c.rbuf.erase(c.rbuf.begin(),
                   c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rpos));
      c.rpos = 0;
    }
    if (static_cast<std::size_t>(n) < sizeof buf) break;  // drained
  }
}

void Reactor::release_ready(Loop& loop, Conn& c) {
  bool released = false;
  while (!c.held.empty() && c.held.begin()->first == c.next_send_seq) {
    c.wq.push_back(std::move(c.held.begin()->second));
    c.held.erase(c.held.begin());
    ++c.next_send_seq;
    --c.inflight;
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    released = true;
  }
  if (released && c.paused && c.inflight < opts_.max_inflight) {
    c.paused = false;
    update_events(loop, c);
  }
}

void Reactor::flush_dirty(Loop& loop) {
  for (const std::uint64_t id : loop.dirty) {
    const auto it = loop.conns.find(id);
    if (it == loop.conns.end()) continue;  // closed since it was marked
    it->second->dirty = false;
    flush_writes(loop, *it->second);
  }
  loop.dirty.clear();
}

void Reactor::flush_writes(Loop& loop, Conn& c) {
  const std::uint64_t id = c.id;
  iovec iov[kMaxIov];
  while (!c.wq.empty()) {
    // One writev over every queued frame (up to kMaxIov), the first one
    // from where the last partial write stopped.
    std::size_t count = 0;
    for (auto it = c.wq.begin(); it != c.wq.end() && count < kMaxIov;
         ++it, ++count) {
      const std::size_t skip = count == 0 ? c.woff : 0;
      iov[count].iov_base = it->data() + skip;
      iov[count].iov_len = it->size() - skip;
    }
    flushes_.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n =
        ::writev(c.sock.fd(), iov, static_cast<int>(count));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.want_write) {
          c.want_write = true;
          update_events(loop, c);
        }
        return;
      }
      close_conn(loop, id, /*error=*/true);
      return;
    }
    // Pop the frames written in full; note how far into the next one the
    // kernel took (a partial write leaves it at the front).
    auto written = static_cast<std::size_t>(n);
    while (!c.wq.empty() && written >= c.wq.front().size() - c.woff) {
      written -= c.wq.front().size() - c.woff;
      c.wq.pop_front();
      c.woff = 0;
    }
    c.woff += written;
  }
  if (c.want_write) {
    c.want_write = false;
    update_events(loop, c);
  }
}

void Reactor::conn_writable(Loop& loop, Conn& c) { flush_writes(loop, c); }

void Reactor::update_events(Loop& loop, Conn& c) {
  epoll_event ev{};
  ev.events = 0;
  if (!c.paused) ev.events |= EPOLLIN;
  if (c.want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = c.id;
  ::epoll_ctl(loop.ep, EPOLL_CTL_MOD, c.sock.fd(), &ev);
}

void Reactor::close_conn(Loop& loop, std::uint64_t id, bool error) {
  const auto it = loop.conns.find(id);
  if (it == loop.conns.end()) return;
  ::epoll_ctl(loop.ep, EPOLL_CTL_DEL, it->second->sock.fd(), nullptr);
  loop.conns.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
  if (error) conns_dropped_.fetch_add(1, std::memory_order_relaxed);
}

Reactor::Stats Reactor::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  s.accept_backoffs = accept_backoffs_.load(std::memory_order_relaxed);
  s.conns_dropped = conns_dropped_.load(std::memory_order_relaxed);
  s.late_responses = late_responses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ccpr::net
