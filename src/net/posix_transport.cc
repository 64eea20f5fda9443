#include "net/posix_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/wire.h"

namespace gf::net {

namespace {

uint64_t NowMicros() { return Clock::System()->NowMicros(); }

Status ErrnoStatus(const char* op, int err) {
  switch (err) {
    case ECONNREFUSED:
    case ECONNRESET:
    case EPIPE:
    case ENETUNREACH:
    case EHOSTUNREACH:
      return Status::Unavailable(std::string(op) + ": " +
                                 std::strerror(err));
    case EAGAIN:
    case ETIMEDOUT:
      return Status::DeadlineExceeded(std::string(op) + ": " +
                                      std::strerror(err));
    default:
      return Status::IOError(std::string(op) + ": " + std::strerror(err));
  }
}

/// RAII fd.
class UniqueFd {
 public:
  explicit UniqueFd(int fd = -1) : fd_(fd) {}
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  int get() const { return fd_; }
  int release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

/// Polls `fd` for `events` until the absolute deadline. OK when ready;
/// kDeadlineExceeded when time ran out first.
Status WaitFor(int fd, short events, uint64_t deadline_micros) {
  for (;;) {
    const uint64_t now = NowMicros();
    if (now >= deadline_micros) {
      return Status::DeadlineExceeded("socket wait timed out");
    }
    // Cap each poll so a clock adjustment can't strand us; the loop
    // re-checks the deadline.
    const uint64_t remaining_ms =
        std::min<uint64_t>((deadline_micros - now) / 1000 + 1, 1000);
    struct pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
    if (rc > 0) return Status::OK();
    if (rc < 0 && errno != EINTR) return ErrnoStatus("poll", errno);
  }
}

Status SendAll(int fd, std::string_view data, uint64_t deadline_micros) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    GF_RETURN_IF_ERROR(WaitFor(fd, POLLOUT, deadline_micros));
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ErrnoStatus("send", errno);
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `want` bytes. `*got_any` reports whether at least one
/// byte arrived — a clean EOF at a frame boundary is distinguishable
/// from a torn frame.
Status RecvExactly(int fd, char* out, std::size_t want,
                   uint64_t deadline_micros, bool* got_any) {
  std::size_t have = 0;
  while (have < want) {
    GF_RETURN_IF_ERROR(WaitFor(fd, POLLIN, deadline_micros));
    const ssize_t n = ::recv(fd, out + have, want - have, 0);
    if (n == 0) {
      return Status::Corruption("peer closed the connection mid-frame (" +
                                std::to_string(have) + " of " +
                                std::to_string(want) + " bytes)");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ErrnoStatus("recv", errno);
    }
    have += static_cast<std::size_t>(n);
    if (got_any != nullptr) *got_any = true;
  }
  return Status::OK();
}

/// "host:port" with a numeric IPv4 host.
Result<struct sockaddr_in> ParseAddress(const std::string& address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size()) {
    return Status::InvalidArgument("address '" + address +
                                   "' is not host:port");
  }
  const std::string host = address.substr(0, colon);
  const std::string port_str = address.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    return Status::InvalidArgument("address '" + address +
                                   "' has an invalid port");
  }
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("address '" + address +
                                   "' needs a numeric IPv4 host");
  }
  return sa;
}

/// Reads one full GFSZ wire frame; the header is validated before the
/// body is sized (net/wire.h). `*got_any` (optional) reports whether
/// any byte arrived, letting a server distinguish "idle connection"
/// from "stalled mid-frame" on timeout.
Result<std::string> RecvFrame(int fd, uint64_t deadline_micros,
                              bool* got_any) {
  std::string frame(kFrameHeaderBytes, '\0');
  GF_RETURN_IF_ERROR(RecvExactly(fd, frame.data(), kFrameHeaderBytes,
                                 deadline_micros, got_any));
  std::size_t body_bytes = 0;
  GF_ASSIGN_OR_RETURN(body_bytes, FramePayloadBytes(frame));
  const std::size_t header_bytes = frame.size();
  frame.resize(header_bytes + body_bytes);
  GF_RETURN_IF_ERROR(RecvExactly(fd, frame.data() + header_bytes, body_bytes,
                                 deadline_micros, got_any));
  return frame;
}

}  // namespace

Result<std::string> BlockingCall(const std::string& address,
                                 std::string_view request_frame,
                                 uint64_t deadline_micros) {
  struct sockaddr_in sa;
  GF_ASSIGN_OR_RETURN(sa, ParseAddress(address));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (fd.get() < 0) return ErrnoStatus("socket", errno);
  if (::connect(fd.get(), reinterpret_cast<struct sockaddr*>(&sa),
                sizeof(sa)) != 0 &&
      errno != EINPROGRESS) {
    return ErrnoStatus("connect", errno);
  }
  GF_RETURN_IF_ERROR(WaitFor(fd.get(), POLLOUT, deadline_micros));
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return ErrnoStatus("getsockopt", errno);
  }
  if (err != 0) return ErrnoStatus("connect", err);

  GF_RETURN_IF_ERROR(SendAll(fd.get(), request_frame, deadline_micros));
  return RecvFrame(fd.get(), deadline_micros, nullptr);
}

void ThreadReaper::MarkFinished(std::thread::id id) {
  const bool held =
      std::any_of(threads_.begin(), threads_.end(),
                  [id](const std::thread& t) { return t.get_id() == id; });
  if (held) finished_.push_back(id);
}

void ThreadReaper::ReapFinished() {
  // A finished thread is at most a few instructions from its exit, so
  // these joins do not block.
  for (const std::thread::id id : finished_) {
    const auto it =
        std::find_if(threads_.begin(), threads_.end(),
                     [id](const std::thread& t) { return t.get_id() == id; });
    it->join();
    threads_.erase(it);
  }
  finished_.clear();
}

std::vector<std::thread> ThreadReaper::TakeAll() {
  finished_.clear();
  return std::exchange(threads_, {});
}

PosixTransport::~PosixTransport() {
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    threads = threads_.TakeAll();
  }
  for (std::thread& t : threads) t.join();
}

void PosixTransport::CallAsync(const std::string& address,
                               std::string request_frame,
                               uint64_t deadline_micros,
                               TransportCallback callback) {
  const std::lock_guard<std::mutex> lock(mu_);
  threads_.ReapFinished();
  threads_.Add(std::thread([this, address, frame = std::move(request_frame),
                            deadline_micros,
                            callback = std::move(callback)]() {
    Result<std::string> result = BlockingCall(address, frame, deadline_micros);
    callback(std::move(result));
    const std::lock_guard<std::mutex> inner(mu_);
    ++completions_;
    threads_.MarkFinished(std::this_thread::get_id());
    cv_.notify_all();
  }));
}

std::size_t PosixTransport::Drive(uint64_t until_micros) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t baseline = completions_;
  const uint64_t now = NowMicros();
  if (now < until_micros) {
    cv_.wait_for(lock, std::chrono::microseconds(until_micros - now),
                 [&] { return completions_ > baseline; });
  }
  return completions_ - baseline;
}

Status PosixServer::Start(uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (fd.get() < 0) return ErrnoStatus("socket", errno);
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<struct sockaddr*>(&sa),
             sizeof(sa)) != 0) {
    return ErrnoStatus("bind", errno);
  }
  if (::listen(fd.get(), 64) != 0) return ErrnoStatus("listen", errno);
  socklen_t len = sizeof(sa);
  if (::getsockname(fd.get(), reinterpret_cast<struct sockaddr*>(&sa),
                    &len) != 0) {
    return ErrnoStatus("getsockname", errno);
  }
  port_ = ntohs(sa.sin_port);
  listen_fd_ = fd.release();
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void PosixServer::AcceptLoop() {
  while (!stopping_.load()) {
    struct pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 50);
    if (rc <= 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    const std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load()) {
      ::close(conn);
      return;
    }
    conn_threads_.ReapFinished();
    conn_fds_.push_back(conn);
    conn_threads_.Add(std::thread([this, conn] { ServeConnection(conn); }));
  }
}

void PosixServer::ServeConnection(int fd) {
  // Frames served strictly in order per connection. Any malformed
  // frame (bad header, torn body) closes the connection — the client
  // surfaces its own kCorruption from the missing response.
  while (!stopping_.load()) {
    // Effectively "wait forever, but stay stoppable": re-poll in short
    // slices so Stop() can interrupt an idle connection. A timeout
    // after SOME bytes arrived means a stall mid-frame — continuing
    // would desync the stream, so the peer is dropped instead.
    bool got_any = false;
    auto frame = RecvFrame(fd, NowMicros() + 50'000, &got_any);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded &&
          !got_any) {
        continue;
      }
      break;  // EOF (clean or torn), a hostile header, or a stall
    }
    const std::string response = handler_(*frame);
    // A generous write deadline; a stalled client is dropped.
    if (!SendAll(fd, response, NowMicros() + 10'000'000).ok()) break;
  }
  // De-register BEFORE closing: once closed, the fd number can be
  // reused by a fresh accept, and Stop() must never shut that one down.
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
    conn_threads_.MarkFinished(std::this_thread::get_id());
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

void PosixServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(conns_mu_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_fds_.clear();
    threads = conn_threads_.TakeAll();
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace gf::net
