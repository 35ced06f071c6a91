#ifndef ITSPQ_NET_SERVER_H_
#define ITSPQ_NET_SERVER_H_

// The network edge: a loopback TCP server speaking the net/wire.h frame
// protocol in front of a QueryService.
//
//   auto service = MakeQueryService(std::move(catalog), opts);
//   NetServerOptions net_opts;                 // port 0 = kernel picks
//   auto server = MakeNetServer(std::move(*service), net_opts);
//   printf("listening on %u\n", (*server)->port());
//   (*server)->WaitForShutdownRequest();       // a client sent kShutdown
//   (*server)->Stop();
//
// Threading: one accept thread, one reader per connection. The reader
// reserves a reply slot per query and submits it through the service's
// callback primitive (an idle interactive query is routed right there).
// A reader owed nothing spins up to 50 µs for the next frame of a peer
// whose last frame came that fast, and only then parks in recv.
// The completing thread fills the slot and writes the ready head slots
// in order, with MSG_DONTWAIT; bytes the socket refuses wait in an
// outbox the reader flushes, and a peer whose outbox has not drained
// within recv_timeout_seconds is dropped. A reader owed replies polls
// its socket and an eventfd the writer of the last owed reply signals.
// Both ends set TCP_NODELAY; a departed peer's connection is reaped on
// the next accept.
//
// Hostile input never takes the server down: a malformed frame earns a
// best-effort kError reply with the precise decode Status and the
// connection is closed; an oversized length prefix is rejected before
// any allocation; a peer that leaves a frame unfinished past the
// SO_RCVTIMEO window trips the slow-loris guard and is dropped, while
// a connection idle BETWEEN frames is kept indefinitely.
//
// A kShutdown frame acks, then unblocks WaitForShutdownRequest() — how
// the loadgen's --shutdown flag stops the server tool from across the
// socket when a smoke run finishes.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"
#include "server/query_service.h"

namespace itspq {
namespace net {

struct NetServerOptions {
  /// Loopback port to bind; 0 asks the kernel for an ephemeral port
  /// (read the result back through port()).
  uint16_t port = 0;
  /// Frame payload ceiling enforced on receive.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Slow-loris guard: a peer must finish a frame within this window
  /// of its first byte or the connection is dropped. Idle time between
  /// frames is not limited. 0 disables the guard (blocking reads).
  double recv_timeout_seconds = 5.0;
};

/// Edge-level counters (the query-level ledger lives in ServiceStats).
struct NetServerStats {
  size_t connections_accepted = 0;
  /// Connections closed by the server because the peer broke protocol
  /// (malformed frame, oversized prefix, mid-frame stall/disconnect,
  /// replies left unread).
  size_t connections_dropped = 0;
  size_t frames_received = 0;
  size_t frames_sent = 0;
  size_t decode_errors = 0;
};

class NetServer {
 public:
  ~NetServer();  ///< Stops if the caller has not already.

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the kernel's pick when options.port was 0).
  uint16_t port() const { return port_; }

  /// Blocks until a client sends kShutdown or Stop() is called.
  void WaitForShutdownRequest();
  bool shutdown_requested() const;

  /// Stops accepting, shuts the owned service down (draining admitted
  /// work so every reply slot is filled), then unblocks and joins every
  /// connection thread and closes all sockets. Idempotent;
  /// Stats()/service().Stats() stay readable afterwards.
  void Stop();

  NetServerStats Stats() const;

  /// The fronted service — for Stats() audits and direct-vs-wire replay
  /// comparisons in tests.
  QueryService& service() { return *service_; }
  const QueryService& service() const { return *service_; }

 private:
  friend StatusOr<std::unique_ptr<NetServer>> MakeNetServer(
      std::unique_ptr<QueryService> service, NetServerOptions options);

  struct Connection;

  NetServer(std::unique_ptr<QueryService> service, NetServerOptions options,
            ScopedFd listen_fd, uint16_t port);

  void AcceptLoop();
  void ReaderLoop(Connection* conn);
  /// Reads and handles one frame; false = stop reading.
  bool ReadOne(Connection* conn, std::string* payload);
  /// Handles one decoded frame; false = close the connection.
  bool HandleFrame(Connection* conn, MsgType type, std::string_view body);
  /// Counts a decode error and a dropped peer; sends a kError frame.
  void Drop(Connection* conn, const Status& error);

  std::unique_ptr<QueryService> service_;
  NetServerOptions options_;
  ScopedFd listen_fd_;
  uint16_t port_ = 0;

  std::thread accept_thread_;
  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;           // guarded by mu_
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Connection>> connections_;  // guarded by mu_
  std::once_flag stop_once_;

  std::atomic<size_t> connections_accepted_{0};
  std::atomic<size_t> connections_dropped_{0};
  std::atomic<size_t> frames_received_{0};
  std::atomic<size_t> frames_sent_{0};
  std::atomic<size_t> decode_errors_{0};
};

/// Binds the loopback listener and starts the accept thread. The server
/// owns the service from here on. kInternal when the bind fails;
/// kInvalidArgument for a null service or nonsensical options.
StatusOr<std::unique_ptr<NetServer>> MakeNetServer(
    std::unique_ptr<QueryService> service,
    NetServerOptions options = NetServerOptions());

}  // namespace net
}  // namespace itspq

#endif  // ITSPQ_NET_SERVER_H_
