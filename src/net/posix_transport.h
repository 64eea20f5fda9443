// Real-socket Transport and the matching frame server (DESIGN.md §14).
//
// PosixTransport runs one blocking call per background thread: connect
// (non-blocking + poll so the deadline covers connection setup), write
// the request frame, read the 20-byte GFSZ header, let
// wire.h/FramePayloadBytes validate it BEFORE sizing the body read,
// then read exactly that many bytes. Statuses follow the Env taxonomy:
//
//   kUnavailable       connection refused/reset, unreachable host —
//                      the replica is gone, try another one.
//   kDeadlineExceeded  the absolute deadline passed at any stage.
//   kCorruption        the peer closed mid-frame or the header is not
//                      a wire frame — never a hang, never an
//                      unbounded allocation.
//   kIOError           everything else (retryable environment noise).
//
// PosixServer is the replica-side accept loop: one thread per
// connection, frames served in order through a Handler (in production
// ReplicaServer::Handle). A connection's thread is joined soon after it
// ends (BlockingCall opens one connection per call, so a long-lived
// replica sees an unbounded number of them); Stop() shuts every socket
// down and joins the rest — destruction is deterministic, which is what
// lets the two-process ctest smoke kill and restart replicas freely.
//
// Addresses are "host:port" with a numeric IPv4 host (e.g.
// "127.0.0.1:7001"); port 0 binds an ephemeral port, readable from
// port() after Start.

#ifndef GF_NET_POSIX_TRANSPORT_H_
#define GF_NET_POSIX_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/transport.h"

namespace gf::net {

/// Threads that report their own end and are joined lazily: the owner
/// reaps before it adds another, so the set stays bounded by the threads
/// still running (an unjoined thread keeps its whole stack mapped). Not
/// synchronized — every call happens under the owner's mutex; TakeAll's
/// threads are joined outside it.
class ThreadReaper {
 public:
  void Add(std::thread thread) { threads_.push_back(std::move(thread)); }
  /// Called by a thread of this set as it ends.
  void MarkFinished(std::thread::id id);
  /// Joins every thread that marked itself finished.
  void ReapFinished();
  /// Hands over every thread still held; later MarkFinished calls from
  /// them are ignored.
  std::vector<std::thread> TakeAll();

 private:
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> finished_;  // each one is in threads_
};

/// One blocking request/response exchange with `address`, bounded by
/// the absolute `deadline_micros` (on Clock::System()). Exposed for
/// tools that want a synchronous call without a transport.
Result<std::string> BlockingCall(const std::string& address,
                                 std::string_view request_frame,
                                 uint64_t deadline_micros);

class PosixTransport : public Transport {
 public:
  PosixTransport() = default;
  /// Joins every in-flight call thread (each is bounded by its
  /// deadline, so destruction terminates).
  ~PosixTransport() override;

  PosixTransport(const PosixTransport&) = delete;
  PosixTransport& operator=(const PosixTransport&) = delete;

  void CallAsync(const std::string& address, std::string request_frame,
                 uint64_t deadline_micros, TransportCallback callback) override;
  /// Blocks on a condition variable until a completion lands or the
  /// system clock reaches `until_micros`.
  std::size_t Drive(uint64_t until_micros) override;
  Clock* clock() override { return Clock::System(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t completions_ = 0;
  ThreadReaper threads_;  // guarded by mu_
};

/// Accept-loop frame server for a replica process.
class PosixServer {
 public:
  using Handler = std::function<std::string(std::string_view)>;

  explicit PosixServer(Handler handler) : handler_(std::move(handler)) {}
  ~PosixServer() { Stop(); }

  PosixServer(const PosixServer&) = delete;
  PosixServer& operator=(const PosixServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting.
  Status Start(uint16_t port);
  /// The bound port (after a successful Start).
  uint16_t port() const { return port_; }

  /// Shuts down the listener and every open connection, then joins all
  /// serving threads. Idempotent.
  void Stop();

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<int> conn_fds_;
  ThreadReaper conn_threads_;  // guarded by conns_mu_
};

}  // namespace gf::net

#endif  // GF_NET_POSIX_TRANSPORT_H_
