#ifndef ITSPQ_NET_SOCKET_H_
#define ITSPQ_NET_SOCKET_H_

// Thin POSIX socket helpers shared by the server and the client: an
// RAII fd, loop-until-done frame writes, and a frame reader that tells
// its four outcomes apart — a complete frame, a clean close between
// frames, an idle timeout between frames (the caller decides whether to
// keep waiting), and an error (malformed prefix, mid-frame disconnect,
// or a started frame not finished within the receive timeout — the
// slow-loris guard). The distinction is the whole point: a server must
// keep a quiet connection but drop a stalled one.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace itspq {
namespace net {

/// Owns one file descriptor; closes on destruction. Movable only.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }

  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// What one ReadFrame call observed on the connection.
enum class FrameRead {
  kFrame,        ///< `payload` holds a complete frame payload.
  kCleanClose,   ///< Peer closed between frames — a normal goodbye.
  kIdleTimeout,  ///< Receive timeout fired before any byte of the next
                 ///< frame; the connection is quiet, not stalled.
  kError,        ///< `error` says why: oversized/zero length prefix,
                 ///< disconnect or timeout mid-frame, recv failure.
};

/// Reads one length-prefixed frame (the payload AFTER the 4-byte
/// prefix) from `fd`. A length prefix of 0 or beyond `max_frame_bytes`
/// is rejected before any body allocation. If the fd carries a
/// SO_RCVTIMEO, a timeout before the first byte is kIdleTimeout, and
/// a frame not complete within that window of its first byte is a
/// kDeadlineExceeded kError, however the peer spaces its bytes out.
FrameRead ReadFrame(int fd, size_t max_frame_bytes, std::string* payload,
                    Status* error);

/// Writes all of `frame` (length prefix included), looping over partial
/// sends. kInternal on a send failure or a peer that closed mid-write.
Status WriteFrame(int fd, std::string_view frame);

/// Sets SO_RCVTIMEO. 0 disables (blocking reads).
Status SetRecvTimeout(int fd, double seconds);

/// Connects to 127.0.0.1:`port`. kInternal on socket/connect failure
/// (message carries errno text).
StatusOr<ScopedFd> ConnectLoopback(uint16_t port);

/// Creates a loopback listener on `port` (0 = kernel-assigned) and
/// returns the fd plus the actual bound port.
StatusOr<std::pair<ScopedFd, uint16_t>> ListenLoopback(uint16_t port,
                                                       int backlog = 64);

}  // namespace net
}  // namespace itspq

#endif  // ITSPQ_NET_SOCKET_H_
