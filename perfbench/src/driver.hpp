// Pipelined client connections for the load generator, all served by the
// calling thread. A request is a framed body plus the handler its reply
// goes to; the server answers each connection in request order, so replies
// are matched positionally.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.hpp"
#include "server/cluster_config.hpp"

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t mono_ns();

class Driver {
 public:
  /// Called with the reply body and the time it was read.
  using Handler =
      std::function<void(std::vector<std::uint8_t>&& body, std::int64_t now)>;

  explicit Driver(const ccpr::server::ClusterConfig& config)
      : config_(config) {}

  /// Connect to `site`, retrying until `timeout_ns`. Returns the connection
  /// index, or -1.
  int open(ccpr::causal::SiteId site, std::int64_t timeout_ns);
  std::size_t connections() const { return conns_.size(); }
  /// First open connection to `site`, or -1.
  int find(ccpr::causal::SiteId site) const;

  /// Queue one request; it is written on the next poll().
  void send(int c, const std::vector<std::uint8_t>& body, Handler h);
  /// Write what is queued, wait up to `timeout_ns` for replies, dispatch.
  void poll(std::int64_t timeout_ns);
  /// Send one request and poll until it is answered (or `timeout_ns`).
  /// Empty body on failure.
  std::vector<std::uint8_t> call(int c, const std::vector<std::uint8_t>& body,
                                 std::int64_t timeout_ns);

  std::size_t inflight() const { return inflight_; }
  std::size_t inflight(int c) const { return at(c).handlers.size(); }
  /// A socket failed or a reply was unframeable; no further replies on
  /// that connection will arrive.
  bool io_error() const { return io_error_; }

 private:
  struct Conn {
    ccpr::causal::SiteId site = 0;
    ccpr::net::Socket sock;
    std::vector<std::uint8_t> wbuf;
    std::size_t woff = 0;
    std::vector<std::uint8_t> rbuf;
    std::size_t rpos = 0;
    std::deque<Handler> handlers;
    bool dead = false;
  };

  Conn& at(int c) const { return *conns_[static_cast<std::size_t>(c)]; }
  void flush(Conn& c);
  void drain(Conn& c);
  void fail(Conn& c);

  const ccpr::server::ClusterConfig& config_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::size_t inflight_ = 0;
  bool io_error_ = false;
};

}  // namespace perfbench
