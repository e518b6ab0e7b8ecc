// net::Reactor tests: framed echo traffic, strictly ordered pipelined
// responses (including out-of-order completion), the per-connection
// in-flight cap, late-response dropping, batched response writes (a burst
// of completions from several threads, one writev per drained burst), and
// the headline capacity claim — thousands of idle connections held open
// while active traffic still flows on a handful of loop threads.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"
#include "net/wake_batch.hpp"
#include "net/wire.hpp"

namespace ccpr {
namespace {

using namespace std::chrono_literals;

std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& body) {
  net::Encoder enc(body.size() + net::kFrameLenBytes);
  enc.u32(static_cast<std::uint32_t>(body.size()));
  enc.raw(body.data(), body.size());
  return enc.take();
}

bool read_frame(int fd, std::vector<std::uint8_t>* body) {
  std::uint8_t len[net::kFrameLenBytes];
  if (!net::read_all(fd, len, sizeof len)) return false;
  const auto size =
      net::decode_frame_size(len, sizeof len, net::kDefaultMaxFrameBytes);
  if (!size) return false;
  body->resize(*size);
  return net::read_all(fd, body->data(), body->size());
}

/// Reactor + echo handler bundle for the tests below.
struct EchoServer {
  std::uint16_t port = 0;
  std::unique_ptr<net::Reactor> reactor;

  /// `defer`: completions go through a worker thread in LIFO order, so
  /// responses complete out of request order and the reactor must reorder.
  explicit EchoServer(net::Reactor::Options opts, bool defer = false) {
    net::Socket listener = net::tcp_listen("127.0.0.1", 0, &port);
    EXPECT_TRUE(listener.valid());
    if (defer) {
      reactor = std::make_unique<net::Reactor>(
          std::move(listener), opts,
          [this](const net::Reactor::ConnRef& ref,
                 std::vector<std::uint8_t> body) {
            std::lock_guard lk(mu_);
            deferred_.emplace_back(ref, std::move(body));
          });
      worker_ = std::thread([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          std::pair<net::Reactor::ConnRef, std::vector<std::uint8_t>> item;
          {
            std::lock_guard lk(mu_);
            if (deferred_.empty()) {
              std::this_thread::sleep_for(100us);
              continue;
            }
            item = std::move(deferred_.back());  // LIFO: reverse order
            deferred_.pop_back();
          }
          reactor->send_response(item.first, std::move(item.second));
        }
      });
    } else {
      reactor = std::make_unique<net::Reactor>(
          std::move(listener), opts,
          [this](const net::Reactor::ConnRef& ref,
                 std::vector<std::uint8_t> body) {
            reactor->send_response(ref, std::move(body));
          });
    }
    EXPECT_TRUE(reactor->start());
  }

  ~EchoServer() {
    stop_.store(true, std::memory_order_relaxed);
    if (worker_.joinable()) worker_.join();
    reactor->stop();
  }

  std::atomic<bool> stop_{false};
  std::thread worker_;
  std::mutex mu_;
  std::vector<std::pair<net::Reactor::ConnRef, std::vector<std::uint8_t>>>
      deferred_;
};

TEST(ReactorTest, EchoRoundTrip) {
  EchoServer srv(net::Reactor::Options{});
  net::Socket c = net::tcp_dial("127.0.0.1", srv.port);
  ASSERT_TRUE(c.valid());
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  const auto f = frame(body);
  ASSERT_TRUE(net::write_all(c.fd(), f.data(), f.size()));
  std::vector<std::uint8_t> got;
  ASSERT_TRUE(read_frame(c.fd(), &got));
  EXPECT_EQ(got, body);

  const auto st = srv.reactor->stats();
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(st.frames_in, 1u);
  EXPECT_EQ(st.frames_out, 1u);
}

TEST(ReactorTest, PipelinedResponsesStayInRequestOrder) {
  // Completions run LIFO on a worker thread; the wire order must still be
  // request order.
  EchoServer srv(net::Reactor::Options{}, /*defer=*/true);
  net::Socket c = net::tcp_dial("127.0.0.1", srv.port);
  ASSERT_TRUE(c.valid());

  const int kFrames = 64;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kFrames; ++i) {
    net::Encoder body;
    body.varint(static_cast<std::uint64_t>(i));
    const auto f = frame(body.buffer());
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(net::write_all(c.fd(), burst.data(), burst.size()));
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(read_frame(c.fd(), &got)) << "frame " << i;
    net::Decoder dec(got);
    EXPECT_EQ(dec.varint(), static_cast<std::uint64_t>(i));
  }
}

TEST(ReactorTest, InflightCapPausesReadsWithoutLosingFrames) {
  net::Reactor::Options opts;
  opts.max_inflight = 4;
  // Defer completions so the cap actually engages: the client pipelines
  // far more than 4 frames while nothing completes.
  EchoServer srv(opts, /*defer=*/true);
  net::Socket c = net::tcp_dial("127.0.0.1", srv.port);
  ASSERT_TRUE(c.valid());

  const int kFrames = 256;
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < kFrames; ++i) {
    net::Encoder body;
    body.varint(static_cast<std::uint64_t>(i));
    body.raw(std::vector<std::uint8_t>(100, 0x5a).data(), 100);
    const auto f = frame(body.buffer());
    burst.insert(burst.end(), f.begin(), f.end());
  }
  // Write and read concurrently: with the cap at 4 the server won't read
  // ahead, so the writer only finishes because the reader drains.
  std::thread writer([&] {
    EXPECT_TRUE(net::write_all(c.fd(), burst.data(), burst.size()));
  });
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(read_frame(c.fd(), &got)) << "frame " << i;
    net::Decoder dec(got);
    EXPECT_EQ(dec.varint(), static_cast<std::uint64_t>(i));
  }
  writer.join();
  const auto st = srv.reactor->stats();
  EXPECT_EQ(st.frames_in, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(st.frames_out, static_cast<std::uint64_t>(kFrames));
}

TEST(ReactorTest, OversizedFrameDropsConnection) {
  net::Reactor::Options opts;
  opts.max_frame_bytes = 1024;
  EchoServer srv(opts);
  net::Socket c = net::tcp_dial("127.0.0.1", srv.port);
  ASSERT_TRUE(c.valid());
  net::Encoder enc;
  enc.u32(1 << 20);  // declared length over the cap
  ASSERT_TRUE(net::write_all(c.fd(), enc.buffer().data(),
                             enc.buffer().size()));
  // The server must close on us (read returns EOF / error).
  std::vector<std::uint8_t> got;
  EXPECT_FALSE(read_frame(c.fd(), &got));
  // Stats settle asynchronously with the close.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (srv.reactor->stats().conns_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(srv.reactor->stats().conns_dropped, 1u);
  EXPECT_EQ(srv.reactor->stats().active, 0u);
}

TEST(ReactorTest, LateResponseForDeadConnectionIsDropped) {
  // Capture the ref, close the client, then answer: the response must be
  // counted as late, not crash or land on a reused connection.
  std::mutex mu;
  std::vector<net::Reactor::ConnRef> refs;
  std::uint16_t port = 0;
  net::Socket listener = net::tcp_listen("127.0.0.1", 0, &port);
  ASSERT_TRUE(listener.valid());
  net::Reactor reactor(
      std::move(listener), net::Reactor::Options{},
      [&](const net::Reactor::ConnRef& ref, std::vector<std::uint8_t>) {
        std::lock_guard lk(mu);
        refs.push_back(ref);
      });
  ASSERT_TRUE(reactor.start());
  {
    net::Socket c = net::tcp_dial("127.0.0.1", port);
    ASSERT_TRUE(c.valid());
    const auto f = frame({1});
    ASSERT_TRUE(net::write_all(c.fd(), f.data(), f.size()));
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    for (;;) {
      {
        std::lock_guard lk(mu);
        if (!refs.empty()) break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(1ms);
    }
  }  // client closes
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (reactor.stats().active != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(reactor.stats().active, 0u);
  net::Reactor::ConnRef ref;
  {
    std::lock_guard lk(mu);
    ref = refs.front();
  }
  reactor.send_response(ref, {2});
  const auto late_deadline = std::chrono::steady_clock::now() + 2s;
  while (reactor.stats().late_responses == 0 &&
         std::chrono::steady_clock::now() < late_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(reactor.stats().late_responses, 1u);
  reactor.stop();
}

TEST(ReactorTest, HoldsThousandsOfIdleConnectionsWhileServingTraffic) {
  // The ISSUE's capacity claim, scaled to what a test box reliably allows:
  // raise RLIMIT_NOFILE toward its hard cap and hold 5k idle connections
  // (or as many as the limit leaves room for, minimum 1k) while an active
  // client sustains echo traffic on 4 loop threads. CCPR_REACTOR_CONNS
  // overrides the target (sanitizer CI trims it; loopback connect latency
  // dominates the runtime, not the reactor).
  struct rlimit lim;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &lim), 0);
  struct rlimit raised = lim;
  raised.rlim_cur = std::min<rlim_t>(lim.rlim_max, 16384);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &raised), 0);
  // Each idle connection costs two fds (client + server end, same
  // process); leave generous headroom for epoll fds, test infra, etc.
  const std::uint64_t budget =
      raised.rlim_cur > 1024 ? (raised.rlim_cur - 1024) / 2 : 0;
  std::uint64_t want = 5000;
  if (const char* env = std::getenv("CCPR_REACTOR_CONNS")) {
    want = std::max(1000ull, std::strtoull(env, nullptr, 10));
  }
  const std::uint64_t target = std::min<std::uint64_t>(budget, want);
  ASSERT_GE(target, 1000u) << "RLIMIT_NOFILE too low to run this test";

  net::Reactor::Options opts;
  opts.io_threads = 4;
  EchoServer srv(opts);

  // Dial in parallel: each blocking loopback connect costs milliseconds on
  // shared CI boxes, so a sequential loop would dominate the test time.
  const std::uint64_t kDialers = 16;
  std::vector<net::Socket> idle(target);
  std::atomic<std::uint64_t> dial_failures{0};
  {
    std::vector<std::thread> dialers;
    for (std::uint64_t d = 0; d < kDialers; ++d) {
      dialers.emplace_back([&, d] {
        for (std::uint64_t i = d; i < target; i += kDialers) {
          net::Socket c = net::tcp_dial("127.0.0.1", srv.port);
          if (!c.valid()) {
            dial_failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          idle[i] = std::move(c);
        }
      });
    }
    for (auto& t : dialers) t.join();
  }
  ASSERT_EQ(dial_failures.load(), 0u);
  // Every connection must be registered, not just queued in the backlog.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (srv.reactor->stats().active < target &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(srv.reactor->stats().active, target);

  // Active traffic with all those idle connections registered.
  net::Socket busy = net::tcp_dial("127.0.0.1", srv.port);
  ASSERT_TRUE(busy.valid());
  for (int i = 0; i < 500; ++i) {
    net::Encoder body;
    body.varint(static_cast<std::uint64_t>(i));
    const auto f = frame(body.buffer());
    ASSERT_TRUE(net::write_all(busy.fd(), f.data(), f.size()));
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(read_frame(busy.fd(), &got)) << "op " << i;
    net::Decoder dec(got);
    EXPECT_EQ(dec.varint(), static_cast<std::uint64_t>(i));
  }
  // A few of the idle connections must still work too.
  for (std::uint64_t i = 0; i < target; i += target / 7 + 1) {
    const auto f = frame({static_cast<std::uint8_t>(i & 0xff)});
    ASSERT_TRUE(net::write_all(idle[i].fd(), f.data(), f.size()));
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(read_frame(idle[i].fd(), &got));
    EXPECT_EQ(got.size(), 1u);
  }
  idle.clear();
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lim), 0);
}

/// Reactor whose handler only records requests; the test completes them.
struct ParkingServer {
  std::uint16_t port = 0;
  std::unique_ptr<net::Reactor> reactor;
  std::mutex mu;
  std::vector<std::pair<net::Reactor::ConnRef, std::vector<std::uint8_t>>>
      parked;

  ParkingServer() {
    net::Socket listener = net::tcp_listen("127.0.0.1", 0, &port);
    EXPECT_TRUE(listener.valid());
    reactor = std::make_unique<net::Reactor>(
        std::move(listener), net::Reactor::Options{},
        [this](const net::Reactor::ConnRef& ref,
               std::vector<std::uint8_t> body) {
          std::lock_guard lk(mu);
          parked.emplace_back(ref, std::move(body));
        });
    EXPECT_TRUE(reactor->start());
  }
  ~ParkingServer() { reactor->stop(); }

  bool wait_parked(std::size_t n) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard lk(mu);
        if (parked.size() >= n) return true;
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

  void complete(std::size_t i) {
    auto& [ref, body] = parked[i];
    reactor->send_response(ref, std::move(body));
  }
};

/// Dial `port` with a receive timeout, so a lost wake fails the test
/// instead of hanging it.
net::Socket dial_with_timeout(std::uint16_t port) {
  net::Socket c = net::tcp_dial("127.0.0.1", port);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  return c;
}

/// Pipeline `n` requests whose bodies are their indexes.
void pipeline(int fd, std::size_t n) {
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < n; ++i) {
    net::Encoder body;
    body.varint(i);
    const auto f = frame(body.buffer());
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(net::write_all(fd, burst.data(), burst.size()));
}

void expect_in_order(int fd, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> got;
    ASSERT_TRUE(read_frame(fd, &got)) << "response " << i;
    net::Decoder dec(got);
    ASSERT_EQ(dec.varint(), i);
  }
}

TEST(ReactorTest, CompletionBurstFromManyThreadsArrivesInOrder) {
  // 96 pipelined requests, completed all at once by 4 threads, each taking
  // every 4th request from the back. Only the completion that makes the
  // loop's op queue non-empty writes the eventfd; a wake lost to that rule
  // would leave responses queued and the read would time out.
  const std::size_t kRequests = 96;
  const std::size_t kThreads = 4;
  ParkingServer srv;
  net::Socket c = dial_with_timeout(srv.port);
  ASSERT_TRUE(c.valid());
  pipeline(c.fd(), kRequests);
  ASSERT_TRUE(srv.wait_parked(kRequests));

  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> completers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    completers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::size_t k = t; k < kRequests; k += kThreads) {
        srv.complete(kRequests - 1 - k);
      }
    });
  }
  expect_in_order(c.fd(), kRequests);
  for (auto& t : completers) t.join();
  const auto st = srv.reactor->stats();
  EXPECT_EQ(st.frames_out, kRequests);
  EXPECT_GE(st.flushes, 1u);
  EXPECT_LE(st.flushes, st.frames_out);
}

TEST(ReactorTest, ReleasedBurstIsWrittenWithFewWritevs) {
  // Requests 1..95 complete from 3 threads while request 0 is held back,
  // so nothing can be released; completing 0 releases all 96 in one op and
  // the loop writes them with one writev, not one write per frame.
  const std::size_t kRequests = 96;
  ParkingServer srv;
  net::Socket c = dial_with_timeout(srv.port);
  ASSERT_TRUE(c.valid());
  pipeline(c.fd(), kRequests);
  ASSERT_TRUE(srv.wait_parked(kRequests));
  const auto before = srv.reactor->stats();

  std::vector<std::thread> completers;
  for (std::size_t t = 0; t < 3; ++t) {
    completers.emplace_back([&, t] {
      for (std::size_t i = 1 + t; i < kRequests; i += 3) srv.complete(i);
    });
  }
  for (auto& t : completers) t.join();
  srv.complete(0);
  expect_in_order(c.fd(), kRequests);
  const auto after = srv.reactor->stats();
  const std::uint64_t frames = after.frames_out - before.frames_out;
  const std::uint64_t flushes = after.flushes - before.flushes;
  EXPECT_EQ(frames, kRequests);
  EXPECT_GE(flushes, 1u);
  EXPECT_LE(flushes * 16, frames) << flushes << " writevs for " << frames;
}

TEST(ReactorTest, WakeBatchDefersTheLoopWakeToScopeEnd) {
  // One thread completes 96 requests in order inside a WakeBatch scope,
  // as an engine apply thread does: the loop is woken once, at scope end,
  // finds all 96 responses queued and writes them together.
  const std::size_t kRequests = 96;
  ParkingServer srv;
  net::Socket c = dial_with_timeout(srv.port);
  ASSERT_TRUE(c.valid());
  pipeline(c.fd(), kRequests);
  ASSERT_TRUE(srv.wait_parked(kRequests));
  // Let the loop finish the read and go back to sleep in epoll_wait; an
  // awake loop would find the queued ops without any wake.
  std::this_thread::sleep_for(50ms);
  const auto before = srv.reactor->stats();
  {
    net::WakeBatch wakes;
    for (std::size_t i = 0; i < kRequests; ++i) srv.complete(i);
    // Queued, but the loop has not been woken: nothing is on the wire.
    std::this_thread::sleep_for(20ms);
    EXPECT_EQ(srv.reactor->stats().frames_out, before.frames_out);
  }
  expect_in_order(c.fd(), kRequests);
  const auto after = srv.reactor->stats();
  EXPECT_EQ(after.frames_out - before.frames_out, kRequests);
  EXPECT_LE(after.flushes - before.flushes, 2u);
}

}  // namespace
}  // namespace ccpr
