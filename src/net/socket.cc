#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace itspq {
namespace net {
namespace {

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

using Clock = std::chrono::steady_clock;

/// The fd's SO_RCVTIMEO in seconds; 0 when unset.
double RecvTimeoutSeconds(int fd) {
  timeval tv = {};
  socklen_t len = sizeof tv;
  (void)::getsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, &len);
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// Reads exactly `n` bytes of a frame whose first byte arrived at
/// `*first_byte` (Clock::time_point() = not yet). Outcomes mirror
/// FrameRead: kCleanClose / kIdleTimeout = EOF / receive timeout before
/// the first byte; kError = EOF after it, the frame unfinished when the
/// fd's SO_RCVTIMEO window from it ends, or a recv failure (`error`
/// names `what`).
FrameRead RecvExact(int fd, char* out, size_t n, const char* what,
                    Clock::time_point* first_byte, Status* error) {
  size_t got = 0;
  while (got < n) {
    const bool started = *first_byte != Clock::time_point();
    // Mid-frame, poll below waits out what is left of the window.
    const ssize_t r =
        ::recv(fd, out + got, n - got, started ? MSG_DONTWAIT : 0);
    if (r > 0) {
      if (!started) *first_byte = Clock::now();
      got += static_cast<size_t>(r);
      continue;
    }
    if (r == 0) {
      if (!started) return FrameRead::kCleanClose;
      *error = InvalidArgumentError(std::string("connection closed mid-") +
                                    what + " after " + std::to_string(got) +
                                    " bytes");
      return FrameRead::kError;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      *error = InternalError(ErrnoText("recv"));
      return FrameRead::kError;
    }
    if (!started) return FrameRead::kIdleTimeout;
    const double window = RecvTimeoutSeconds(fd);
    const double left =
        window -
        std::chrono::duration<double>(Clock::now() - *first_byte).count();
    if (window > 0 && left <= 0) {
      *error = DeadlineExceededError(
          std::string("receive timeout mid-") + what +
          " (slow-loris guard): frame unfinished after " +
          std::to_string(got) + " bytes");
      return FrameRead::kError;
    }
    pollfd ready = {fd, POLLIN, 0};
    (void)::poll(&ready, 1,
                 window > 0 ? static_cast<int>(std::ceil(left * 1e3)) : -1);
  }
  return FrameRead::kFrame;
}

}  // namespace

void ScopedFd::Reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

FrameRead ReadFrame(int fd, size_t max_frame_bytes, std::string* payload,
                    Status* error) {
  Clock::time_point first_byte;
  uint32_t len = 0;
  char prefix[sizeof len];
  const FrameRead head =
      RecvExact(fd, prefix, sizeof prefix, "length prefix", &first_byte, error);
  if (head != FrameRead::kFrame) return head;
  std::memcpy(&len, prefix, sizeof len);
  if (len == 0) {
    *error = InvalidArgumentError("frame with zero-length payload");
    return FrameRead::kError;
  }
  if (len > max_frame_bytes) {
    *error = InvalidArgumentError(
        "frame length prefix " + std::to_string(len) + " exceeds limit " +
        std::to_string(max_frame_bytes));
    return FrameRead::kError;
  }
  payload->resize(len);
  // The clock started with the prefix, so the body ends in kFrame or
  // kError — never a clean close or an idle timeout.
  return RecvExact(fd, payload->data(), len, "frame", &first_byte, error);
}

Status WriteFrame(int fd, std::string_view frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-write surfaces as EPIPE,
    // not a process-killing SIGPIPE.
    const ssize_t r = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (r >= 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    return InternalError(ErrnoText("send"));
  }
  return Status::Ok();
}

Status SetRecvTimeout(int fd, double seconds) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return InternalError(ErrnoText("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::Ok();
}

StatusOr<ScopedFd> ConnectLoopback(uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return InternalError(ErrnoText("socket"));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    return InternalError(ErrnoText("connect"));
  }
  // Frames are small and latency-sensitive; don't let Nagle batch them.
  int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

StatusOr<std::pair<ScopedFd, uint16_t>> ListenLoopback(uint16_t port,
                                                       int backlog) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return InternalError(ErrnoText("socket"));
  int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return InternalError(ErrnoText("bind"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return InternalError(ErrnoText("listen"));
  }
  socklen_t addr_len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return InternalError(ErrnoText("getsockname"));
  }
  return std::make_pair(std::move(fd), ntohs(addr.sin_port));
}

}  // namespace net
}  // namespace itspq
