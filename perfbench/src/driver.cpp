#include "driver.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "net/frame.hpp"
#include "wire.hpp"

namespace perfbench {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Driver::open(ccpr::causal::SiteId site, std::int64_t timeout_ns) {
  const auto& addr = config_.sites.at(site);
  const std::int64_t deadline = mono_ns() + timeout_ns;
  for (;;) {
    ccpr::net::Socket s = ccpr::net::tcp_dial(addr.host, addr.client_port);
    if (s.valid()) {
      if (!ccpr::net::set_nonblocking(s.fd())) return -1;
      auto c = std::make_unique<Conn>();
      c->site = site;
      c->sock = std::move(s);
      conns_.push_back(std::move(c));
      return static_cast<int>(conns_.size() - 1);
    }
    if (mono_ns() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

int Driver::find(ccpr::causal::SiteId site) const {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->site == site && !conns_[i]->dead) return static_cast<int>(i);
  }
  return -1;
}

void Driver::send(int c, const std::vector<std::uint8_t>& body, Handler h) {
  Conn& conn = at(c);
  append_frame(conn.wbuf, body);
  conn.handlers.push_back(std::move(h));
  ++inflight_;
}

void Driver::fail(Conn& c) {
  io_error_ = true;
  c.dead = true;
  inflight_ -= c.handlers.size();
  c.handlers.clear();
  c.wbuf.clear();
  c.woff = 0;
}

void Driver::flush(Conn& c) {
  while (!c.dead && c.woff < c.wbuf.size()) {
    const ssize_t n =
        ::write(c.sock.fd(), c.wbuf.data() + c.woff, c.wbuf.size() - c.woff);
    if (n > 0) {
      c.woff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    fail(c);
    return;
  }
  c.wbuf.clear();
  c.woff = 0;
}

void Driver::drain(Conn& c) {
  for (;;) {
    const std::size_t old = c.rbuf.size();
    c.rbuf.resize(old + 65536);
    const ssize_t n = ::read(c.sock.fd(), c.rbuf.data() + old, 65536);
    if (n <= 0) {
      c.rbuf.resize(old);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail(c);  // EOF or error
      return;
    }
    c.rbuf.resize(old + static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < 65536) break;
  }
  const std::int64_t now = mono_ns();
  while (c.rbuf.size() - c.rpos >= ccpr::net::kFrameLenBytes) {
    const auto len = ccpr::net::decode_frame_size(
        c.rbuf.data() + c.rpos, ccpr::net::kFrameLenBytes,
        ccpr::net::kDefaultMaxFrameBytes);
    if (!len || c.handlers.empty()) {
      fail(c);
      return;
    }
    if (c.rbuf.size() - c.rpos < ccpr::net::kFrameLenBytes + *len) break;
    const auto* p = c.rbuf.data() + c.rpos + ccpr::net::kFrameLenBytes;
    std::vector<std::uint8_t> body(p, p + *len);
    c.rpos += ccpr::net::kFrameLenBytes + *len;
    Handler h = std::move(c.handlers.front());
    c.handlers.pop_front();
    --inflight_;
    h(std::move(body), now);
  }
  if (c.rpos == c.rbuf.size()) {
    c.rbuf.clear();
    c.rpos = 0;
  }
}

void Driver::poll(std::int64_t timeout_ns) {
  std::vector<pollfd> fds;
  std::vector<Conn*> which;
  for (auto& c : conns_) {
    if (c->dead) continue;
    flush(*c);
    if (c->dead) continue;
    short ev = POLLIN;
    if (c->woff < c->wbuf.size()) ev |= POLLOUT;
    fds.push_back(pollfd{c->sock.fd(), ev, 0});
    which.push_back(c.get());
  }
  if (timeout_ns < 0) timeout_ns = 0;
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
              static_cast<long>(timeout_ns % 1'000'000'000)};
  const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) drain(*which[i]);
    if (!which[i]->dead && (fds[i].revents & POLLOUT) != 0) flush(*which[i]);
  }
}

std::vector<std::uint8_t> Driver::call(int c,
                                       const std::vector<std::uint8_t>& body,
                                       std::int64_t timeout_ns) {
  std::vector<std::uint8_t> out;
  bool done = false;
  send(c, body, [&](std::vector<std::uint8_t>&& b, std::int64_t) {
    out = std::move(b);
    done = true;
  });
  const std::int64_t deadline = mono_ns() + timeout_ns;
  while (!done && !at(c).dead) {
    const std::int64_t left = deadline - mono_ns();
    if (left <= 0) break;
    poll(std::min<std::int64_t>(left, 10'000'000));
  }
  // The handler refers to this frame: a reply that is still owed must
  // never reach it, so an unanswered call retires the connection.
  if (!done && !at(c).dead) fail(at(c));
  return out;
}

}  // namespace perfbench
