// TcpTransport tests over real loopback sockets: FIFO delivery, lazy dial
// with backoff (peer not yet listening), reconnect after a peer restart,
// loopback fast path, flush, and per-peer stats. The RawPeer cases write
// hand-made byte streams into the inbound reader: many frames per read, a
// frame split over many reads, frames larger than the read buffer, a bad
// frame after good ones, and the dedup / partition counters.
#include "net/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace ccpr::net {
namespace {

using namespace std::chrono_literals;

/// Reserve n distinct loopback ports by briefly binding port 0. The sockets
/// are closed before use; SO_REUSEADDR makes the rebind reliable in practice.
std::vector<std::uint16_t> pick_ports(std::size_t n) {
  std::vector<Socket> held;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint16_t port = 0;
    held.push_back(tcp_listen("127.0.0.1", 0, &port));
    EXPECT_TRUE(held.back().valid());
    ports.push_back(port);
  }
  return ports;  // listeners close here
}

class CollectSink : public IMessageSink {
 public:
  void deliver(Message msg) override {
    std::lock_guard lk(mu_);
    msgs_.push_back(std::move(msg));
  }

  std::vector<Message> snapshot() const {
    std::lock_guard lk(mu_);
    return msgs_;
  }

  std::size_t count() const {
    std::lock_guard lk(mu_);
    return msgs_.size();
  }

  bool wait_for_count(std::size_t n,
                      std::chrono::milliseconds timeout = 5s) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (count() < n) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(2ms);
    }
    return true;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Message> msgs_;
};

Message make_msg(SiteId src, SiteId dst, std::uint8_t tag) {
  Message m;
  m.kind = MsgKind::kUpdate;
  m.src = src;
  m.dst = dst;
  m.body = {tag, 0x5a};
  m.payload_bytes = 1;
  return m;
}

TcpTransport::Options options_for(SiteId self,
                                  const std::vector<std::uint16_t>& ports) {
  TcpTransport::Options opts;
  opts.self = self;
  opts.listen_port = ports[self];
  for (SiteId s = 0; s < ports.size(); ++s) {
    if (s != self) opts.peers.push_back({s, "127.0.0.1", ports[s]});
  }
  opts.jitter_seed = 0x7e57 + self;
  return opts;
}

TEST(TcpTransportTest, PairExchangesFifo) {
  const auto ports = pick_ports(2);
  metrics::Metrics ma, mb;
  CollectSink sa, sb;
  TcpTransport a(options_for(0, ports), ma);
  TcpTransport b(options_for(1, ports), mb);
  a.connect(0, &sa);
  b.connect(1, &sb);
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());

  constexpr std::size_t kEach = 200;
  for (std::size_t i = 0; i < kEach; ++i) {
    a.send(make_msg(0, 1, static_cast<std::uint8_t>(i)));
    b.send(make_msg(1, 0, static_cast<std::uint8_t>(i)));
  }
  EXPECT_TRUE(a.flush(5s));
  EXPECT_TRUE(b.flush(5s));
  ASSERT_TRUE(sb.wait_for_count(kEach));
  ASSERT_TRUE(sa.wait_for_count(kEach));

  // FIFO per channel: tags arrive in send order on both directions.
  const auto at_b = sb.snapshot();
  const auto at_a = sa.snapshot();
  for (std::size_t i = 0; i < kEach; ++i) {
    EXPECT_EQ(at_b[i].body[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(at_b[i].src, 0u);
    EXPECT_EQ(at_a[i].body[0], static_cast<std::uint8_t>(i));
  }

  const auto stats = a.peer_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].site, 1u);
  EXPECT_EQ(stats[0].msgs_sent, kEach);
  EXPECT_EQ(stats[0].msgs_recv, kEach);
  EXPECT_GE(stats[0].connects, 1u);
  EXPECT_EQ(stats[0].queued, 0u);
  EXPECT_GT(stats[0].bytes_sent, kEach);  // framed: > 1 byte per message

  // Transport metrics counted the sends by kind and split the bytes.
  EXPECT_EQ(a.metrics_snapshot().update_msgs, kEach);
  EXPECT_EQ(a.metrics_snapshot().payload_bytes, kEach);
  EXPECT_EQ(a.metrics_snapshot().control_bytes, kEach);

  a.stop();
  b.stop();
}

TEST(TcpTransportTest, LoopbackDeliversWithoutSockets) {
  const auto ports = pick_ports(1);
  metrics::Metrics m;
  CollectSink sink;
  TcpTransport t(options_for(0, ports), m);
  t.connect(0, &sink);
  ASSERT_TRUE(t.start());
  t.send(make_msg(0, 0, 0xaa));
  ASSERT_TRUE(sink.wait_for_count(1));
  EXPECT_EQ(sink.snapshot()[0].body[0], 0xaa);
  t.stop();
}

TEST(TcpTransportTest, QueuesUntilPeerComesUp) {
  const auto ports = pick_ports(2);
  metrics::Metrics ma, mb;
  CollectSink sa, sb;
  TcpTransport a(options_for(0, ports), ma);
  a.connect(0, &sa);
  ASSERT_TRUE(a.start());

  // Peer 1 is not listening yet: sends must queue, the sender thread
  // retrying its dial with backoff.
  constexpr std::size_t kEach = 50;
  for (std::size_t i = 0; i < kEach; ++i) {
    a.send(make_msg(0, 1, static_cast<std::uint8_t>(i)));
  }
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(a.peer_stats()[0].msgs_sent, 0u);
  EXPECT_GE(a.peer_stats()[0].queued, 1u);

  TcpTransport b(options_for(1, ports), mb);
  b.connect(1, &sb);
  ASSERT_TRUE(b.start());
  ASSERT_TRUE(sb.wait_for_count(kEach));
  const auto at_b = sb.snapshot();
  for (std::size_t i = 0; i < kEach; ++i) {
    EXPECT_EQ(at_b[i].body[0], static_cast<std::uint8_t>(i));
  }
  a.stop();
  b.stop();
}

TEST(TcpTransportTest, ReconnectsAfterPeerRestart) {
  const auto ports = pick_ports(2);
  metrics::Metrics ma;
  CollectSink sa;
  TcpTransport a(options_for(0, ports), ma);
  a.connect(0, &sa);
  ASSERT_TRUE(a.start());

  std::size_t tag = 0;
  {
    metrics::Metrics mb;
    CollectSink sb;
    TcpTransport b(options_for(1, ports), mb);
    b.connect(1, &sb);
    ASSERT_TRUE(b.start());
    for (int i = 0; i < 10; ++i) {
      a.send(make_msg(0, 1, static_cast<std::uint8_t>(tag++)));
    }
    ASSERT_TRUE(sb.wait_for_count(10));
    b.stop();  // peer goes away (state lost, port freed)
  }

  // A TCP sender only discovers a dead peer when a write fails, and a few
  // writes can land in the kernel buffer of a reset socket before the RST
  // is processed (those bytes are lost — the documented crash window). Feed
  // probe messages until the sender's queue stalls, which means the death
  // was detected and everything queued from now on survives.
  std::this_thread::sleep_for(50ms);
  const auto probe_deadline = std::chrono::steady_clock::now() + 5s;
  while (a.peer_stats()[0].queued == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), probe_deadline);
    a.send(make_msg(0, 1, 0xfe));
    std::this_thread::sleep_for(10ms);
  }

  for (int i = 0; i < 10; ++i) {
    a.send(make_msg(0, 1, static_cast<std::uint8_t>(tag++)));
  }
  metrics::Metrics mb2;
  CollectSink sb2;
  TcpTransport b2(options_for(1, ports), mb2);
  b2.connect(1, &sb2);
  ASSERT_TRUE(b2.start());
  // Wait for the batch's last tag, then check the batch arrived in order
  // (ignoring surviving probes).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (true) {
    const auto msgs = sb2.snapshot();
    if (!msgs.empty() && msgs.back().body[0] == 19) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(2ms);
  }
  std::vector<std::uint8_t> batch_tags;
  for (const auto& m : sb2.snapshot()) {
    if (m.body[0] != 0xfe) batch_tags.push_back(m.body[0]);
  }
  ASSERT_EQ(batch_tags.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batch_tags[i], static_cast<std::uint8_t>(10 + i));
  }
  EXPECT_GE(a.peer_stats()[0].connects, 2u);
  a.stop();
  b2.stop();
}

TEST(TcpTransportTest, RestartedSenderIsNotDroppedAsDuplicate) {
  const auto ports = pick_ports(2);
  metrics::Metrics mb;
  CollectSink sb;
  TcpTransport b(options_for(1, ports), mb);
  b.connect(1, &sb);
  ASSERT_TRUE(b.start());

  // First incarnation of site 0 pushes b's seq watermark for the channel
  // up to 10, then dies.
  {
    metrics::Metrics ma;
    CollectSink sa;
    TcpTransport a(options_for(0, ports), ma);
    a.connect(0, &sa);
    ASSERT_TRUE(a.start());
    for (int i = 0; i < 10; ++i) {
      a.send(make_msg(0, 1, static_cast<std::uint8_t>(i)));
    }
    ASSERT_TRUE(sb.wait_for_count(10));
    a.stop();
  }

  // Restarted site 0: a fresh process whose seq space restarts at 1. Its
  // frames carry a new incarnation, so b must reset the watermark and
  // deliver them instead of dropping them as duplicates of seqs 1..10.
  metrics::Metrics ma2;
  CollectSink sa2;
  TcpTransport a2(options_for(0, ports), ma2);
  a2.connect(0, &sa2);
  ASSERT_TRUE(a2.start());
  for (int i = 0; i < 5; ++i) {
    a2.send(make_msg(0, 1, static_cast<std::uint8_t>(100 + i)));
  }
  ASSERT_TRUE(sb.wait_for_count(15))
      << "restarted sender's frames were dropped by the stale seq watermark";
  const auto msgs = sb.snapshot();
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(msgs[10 + i].body[0], static_cast<std::uint8_t>(100 + i));
  }
  const auto stats = b.peer_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].incarnation_resets, 1u);
  EXPECT_EQ(stats[0].dup_drops, 0u);
  a2.stop();
  b.stop();
}

TEST(TcpTransportTest, OverflowDropsOldestInsteadOfBlocking) {
  const auto ports = pick_ports(2);
  metrics::Metrics ma;
  CollectSink sa;
  auto opts = options_for(0, ports);
  opts.max_queue_msgs = 8;
  opts.max_batch_msgs = 4;
  TcpTransport a(opts, ma);
  a.connect(0, &sa);
  ASSERT_TRUE(a.start());

  // Peer 1 never listens. With a blocking cap this loop would park forever
  // at the 9th send; the drop-oldest policy must complete it, retaining at
  // most cap + one in-flight batch and counting the rest as drops.
  constexpr std::size_t kSends = 100;
  for (std::size_t i = 0; i < kSends; ++i) {
    a.send(make_msg(0, 1, static_cast<std::uint8_t>(i)));
  }
  const auto stats = a.peer_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_LE(stats[0].queued, opts.max_queue_msgs + opts.max_batch_msgs);
  EXPECT_GE(stats[0].overflow_drops,
            kSends - opts.max_queue_msgs - opts.max_batch_msgs);
  EXPECT_EQ(stats[0].queue_cap, opts.max_queue_msgs);
  a.stop();  // must return promptly: nothing can be parked in send()
}

TEST(TcpTransportTest, FlushTimesOutTowardDeadPeer) {
  const auto ports = pick_ports(2);
  metrics::Metrics ma;
  CollectSink sa;
  TcpTransport a(options_for(0, ports), ma);
  a.connect(0, &sa);
  ASSERT_TRUE(a.start());
  a.send(make_msg(0, 1, 1));
  EXPECT_FALSE(a.flush(50ms));
  a.stop();
}

TEST(TcpTransportTest, OversizedFrameDropsConnectionNotProcess) {
  const auto ports = pick_ports(2);
  metrics::Metrics ma, mb;
  CollectSink sa, sb;
  auto aopts = options_for(0, ports);
  TcpTransport a(aopts, ma);
  auto bopts = options_for(1, ports);
  bopts.max_frame_bytes = 64;  // receiver-side cap
  TcpTransport b(bopts, mb);
  a.connect(0, &sa);
  b.connect(1, &sb);
  ASSERT_TRUE(a.start());
  ASSERT_TRUE(b.start());

  Message big = make_msg(0, 1, 0xff);
  big.body.assign(1000, 0xee);
  big.payload_bytes = 1000;
  a.send(std::move(big));
  EXPECT_TRUE(a.flush(5s));  // writes fine; receiver rejects and disconnects
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(sb.count(), 0u);

  // The receiver is still alive: a small frame on a fresh connection works.
  a.send(make_msg(0, 1, 0x01));
  ASSERT_TRUE(sb.wait_for_count(1));
  EXPECT_EQ(sb.snapshot()[0].body[0], 0x01);
  a.stop();
  b.stop();
}

/// A TcpTransport for site 1 and a raw socket posing as site 0's sender,
/// so a test controls exactly how the inbound bytes are cut into writes.
struct RawPeer {
  static constexpr std::uint64_t kIncarnation = 0xab;

  std::vector<std::uint16_t> ports = pick_ports(2);
  metrics::Metrics metrics;
  CollectSink sink;
  TcpTransport transport{options_for(1, ports), metrics};
  Socket sock;

  RawPeer() {
    transport.connect(1, &sink);
    EXPECT_TRUE(transport.start());
    sock = tcp_dial("127.0.0.1", transport.listen_port());
    EXPECT_TRUE(sock.valid());
    EXPECT_TRUE(set_nodelay(sock.fd()));
  }
  ~RawPeer() { transport.stop(); }

  /// Frame from site 0 with channel seq `seq`; body {tag, 0x5a} + filler.
  static std::vector<std::uint8_t> frame(std::uint64_t seq, std::uint8_t tag,
                                         std::size_t filler = 0) {
    Message m = make_msg(0, 1, tag);
    m.body.resize(m.body.size() + filler, 0xc3);
    return encode_frame(m, kIncarnation, seq);
  }

  bool write(const std::vector<std::uint8_t>& bytes) const {
    return write_all(sock.fd(), bytes.data(), bytes.size());
  }

  TcpTransport::PeerStats stats() const {
    for (const auto& ps : transport.peer_stats()) {
      if (ps.site == 0) return ps;
    }
    return {};
  }
};

void append(std::vector<std::uint8_t>* out,
            const std::vector<std::uint8_t>& bytes) {
  out->insert(out->end(), bytes.begin(), bytes.end());
}

TEST(TcpTransportTest, ManyFramesInOneWriteArriveInOrder) {
  RawPeer peer;
  const std::size_t kFrames = 300;
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < kFrames; ++i) {
    append(&stream, RawPeer::frame(i + 1, static_cast<std::uint8_t>(i)));
  }
  ASSERT_TRUE(peer.write(stream));
  ASSERT_TRUE(peer.sink.wait_for_count(kFrames));
  const auto msgs = peer.sink.snapshot();
  ASSERT_EQ(msgs.size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(msgs[i].body[0], static_cast<std::uint8_t>(i)) << "frame " << i;
  }
  const auto st = peer.stats();
  EXPECT_EQ(st.msgs_recv, kFrames);
  EXPECT_EQ(st.bytes_recv, stream.size());
  // Whole buffers of frames per read, not one read per frame.
  EXPECT_GE(st.reads, 1u);
  EXPECT_LT(st.reads, kFrames / 4);
}

TEST(TcpTransportTest, FrameSplitByteByByteIsReassembled) {
  RawPeer peer;
  const auto first = RawPeer::frame(1, 0x11, 40);
  for (const std::uint8_t byte : first) {
    ASSERT_TRUE(peer.write({byte}));
    std::this_thread::sleep_for(200us);
  }
  ASSERT_TRUE(peer.sink.wait_for_count(1));
  // The reader's state is clean after the split frame: the next one lands.
  const auto second = RawPeer::frame(2, 0x22);
  ASSERT_TRUE(peer.write(second));
  ASSERT_TRUE(peer.sink.wait_for_count(2));
  const auto msgs = peer.sink.snapshot();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].body[0], 0x11);
  EXPECT_EQ(msgs[0].body.size(), 42u);
  EXPECT_EQ(msgs[1].body[0], 0x22);
  const auto st = peer.stats();
  EXPECT_EQ(st.msgs_recv, 2u);
  EXPECT_EQ(st.bytes_recv, first.size() + second.size());
}

TEST(TcpTransportTest, FrameLargerThanReadChunkIsReassembled) {
  RawPeer peer;
  // Far larger than the reader's buffer, between two small frames, in one
  // write and then again split at odd offsets.
  const std::size_t kBig = 300 * 1024;
  std::vector<std::uint8_t> stream;
  append(&stream, RawPeer::frame(1, 0x01));
  append(&stream, RawPeer::frame(2, 0x02, kBig));
  append(&stream, RawPeer::frame(3, 0x03));
  append(&stream, RawPeer::frame(4, 0x04, kBig));
  append(&stream, RawPeer::frame(5, 0x05));
  const std::size_t cut = stream.size() * 3 / 8;  // inside the first big one
  std::thread writer([&] {
    EXPECT_TRUE(write_all(peer.sock.fd(), stream.data(), cut));
    std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(write_all(peer.sock.fd(), stream.data() + cut,
                          stream.size() - cut));
  });
  ASSERT_TRUE(peer.sink.wait_for_count(5));
  writer.join();
  const auto msgs = peer.sink.snapshot();
  ASSERT_EQ(msgs.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(msgs[i].body[0], static_cast<std::uint8_t>(i + 1));
  }
  EXPECT_EQ(msgs[1].body.size(), kBig + 2);
  EXPECT_EQ(msgs[3].body.size(), kBig + 2);
  EXPECT_EQ(msgs[3].body.back(), 0xc3);
  EXPECT_EQ(peer.stats().bytes_recv, stream.size());
}

TEST(TcpTransportTest, FramesBeforeMalformedOneAreDeliveredThenConnDrops) {
  RawPeer peer;
  std::vector<std::uint8_t> stream;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    append(&stream, RawPeer::frame(seq, static_cast<std::uint8_t>(seq)));
  }
  // A well-formed length prefix over a body with an unknown message kind.
  append(&stream, {4, 0, 0, 0, 0xee, 0, 0, 0});
  append(&stream, RawPeer::frame(4, 0x04));  // after the bad one: never read
  ASSERT_TRUE(peer.write(stream));
  ASSERT_TRUE(peer.sink.wait_for_count(3));
  // The transport closes the connection: the raw peer sees EOF or a reset.
  std::uint8_t byte = 0;
  EXPECT_LE(::read(peer.sock.fd(), &byte, 1), 0);
  std::this_thread::sleep_for(20ms);
  const auto msgs = peer.sink.snapshot();
  ASSERT_EQ(msgs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(msgs[i].body[0], static_cast<std::uint8_t>(i + 1));
  }
  EXPECT_EQ(peer.stats().msgs_recv, 3u);

  // The process is fine: a fresh connection delivers again.
  Socket again = tcp_dial("127.0.0.1", peer.transport.listen_port());
  ASSERT_TRUE(again.valid());
  const auto next = RawPeer::frame(5, 0x05);
  ASSERT_TRUE(write_all(again.fd(), next.data(), next.size()));
  ASSERT_TRUE(peer.sink.wait_for_count(4));
  EXPECT_EQ(peer.sink.snapshot()[3].body[0], 0x05);
}

TEST(TcpTransportTest, BatchedReadsKeepDedupAndPartitionCounters) {
  RawPeer peer;
  // Seqs 1..3, a replay of 2..3, then 4: one write, so one read sees the
  // duplicates between fresh frames.
  std::vector<std::uint8_t> stream;
  for (const std::uint64_t seq :
       std::initializer_list<std::uint64_t>{1, 2, 3, 2, 3, 4}) {
    append(&stream, RawPeer::frame(seq, static_cast<std::uint8_t>(seq)));
  }
  ASSERT_TRUE(peer.write(stream));
  ASSERT_TRUE(peer.sink.wait_for_count(4));
  auto st = peer.stats();
  EXPECT_EQ(st.msgs_recv, 4u);
  EXPECT_EQ(st.dup_drops, 2u);

  // Partitioned: the frames are read and discarded before dedup, counted.
  ChaosRule partition;
  partition.partition = true;
  peer.transport.set_chaos(0, partition);
  stream.clear();
  append(&stream, RawPeer::frame(5, 0x05));
  append(&stream, RawPeer::frame(6, 0x06));
  ASSERT_TRUE(peer.write(stream));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (peer.stats().chaos_rx_drops < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(2ms);
  }
  peer.transport.clear_chaos();
  ASSERT_TRUE(peer.write(RawPeer::frame(7, 0x07)));
  ASSERT_TRUE(peer.sink.wait_for_count(5));
  const auto msgs = peer.sink.snapshot();
  ASSERT_EQ(msgs.size(), 5u);
  EXPECT_EQ(msgs[4].body[0], 0x07);
  st = peer.stats();
  EXPECT_EQ(st.msgs_recv, 5u);
  EXPECT_EQ(st.dup_drops, 2u);
  EXPECT_EQ(st.chaos_rx_drops, 2u);
}

}  // namespace
}  // namespace ccpr::net
