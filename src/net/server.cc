#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <utility>

namespace itspq {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

/// Above this many unsent reply bytes the reader takes no new frames.
constexpr size_t kMaxOutboxBytes = 256 * 1024;
/// A reader owed replies re-checks the outbox this often: a completing
/// thread wakes it out of poll only once every owed reply is written.
constexpr int kOutboxTickMillis = 10;
/// An idle reader whose peer sent its last frame within this long of
/// the reader going idle polls this long for the next one before it
/// parks: a loopback wake-up costs about a closed-loop round trip.
constexpr std::chrono::microseconds kSpinWindow(50);

/// Peeks without blocking until `fd` has a byte, EOF or an error
/// pending, or `until` passes; the caller's blocking read follows.
void SpinForInput(int fd, Clock::time_point until) {
  char byte;
  do {
    if (::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT) >= 0) return;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return;
  } while (Clock::now() < until);
}

}  // namespace

// One accepted socket and its reply queue. The reader reserves a slot
// per reply in arrival order; whichever thread fills one writes every
// ready slot at the head, so pipelined replies keep their order.
struct NetServer::Connection {
  struct Slot {
    bool ready = false;
    std::string frame;
  };

  explicit Connection(std::atomic<size_t>& sent) : frames_sent(sent) {}

  ScopedFd fd;
  /// Signalled when a writer empties the reply queue while the reader
  /// polls, so it goes idle (and spins) at once. When invalid, poll
  /// skips it and the tick stands in.
  ScopedFd wake;
  std::thread reader;
  std::atomic<bool> done{false};  // the reader's last touch; reapable
  std::atomic<size_t>& frames_sent;
  Clock::time_point framed_at;  // reader only: ReadOne's last whole frame

  std::mutex mu;
  std::condition_variable cv;  // a writer finished
  std::deque<Slot> slots;      // guarded by mu; stable references
  /// Bytes the socket has not taken yet; only the writer changes it.
  std::string outbox;          // guarded by mu
  bool writing = false;        // guarded by mu
  bool dead = false;  // guarded by mu; peer gone, replies discarded
  bool parked = false;  // guarded by mu; the reader is in poll

  bool Owed() const { return !slots.empty() || !outbox.empty() || writing; }

  Slot* Reserve() {
    std::lock_guard<std::mutex> lock(mu);
    return &slots.emplace_back();
  }

  void Fill(Slot* slot, std::string frame) {
    std::unique_lock<std::mutex> lock(mu);
    slot->frame = std::move(frame);
    slot->ready = true;
    Flush(lock);
  }

  void Push(std::string frame) { Fill(Reserve(), std::move(frame)); }

  /// Moves the ready slots at the head into the outbox and sends it
  /// without blocking; a writer already at work picks them up instead.
  void Flush(std::unique_lock<std::mutex>& lock) {
    if (writing) return;
    writing = true;
    for (;;) {
      for (; !slots.empty() && slots.front().ready; slots.pop_front()) {
        if (dead) continue;
        outbox += slots.front().frame;
        frames_sent.fetch_add(1, std::memory_order_relaxed);
      }
      if (dead) outbox.clear();
      if (outbox.empty()) break;
      std::string out = std::move(outbox);
      outbox.clear();
      lock.unlock();
      // MSG_NOSIGNAL: a vanished peer is EPIPE, not a SIGPIPE.
      const ssize_t r = ::send(fd.get(), out.data(), out.size(),
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      const bool alive = r >= 0 || errno == EAGAIN || errno == EWOULDBLOCK;
      lock.lock();
      dead = dead || !alive;
      if (!alive || static_cast<size_t>(r) == out.size()) continue;
      // Socket full: the reader sends the rest as the peer drains.
      out.erase(0, r > 0 ? static_cast<size_t>(r) : 0);
      outbox = std::move(out);
      break;
    }
    writing = false;
    if (parked && !Owed()) (void)eventfd_write(wake.get(), 1);
    cv.notify_all();
  }
};

NetServer::NetServer(std::unique_ptr<QueryService> service,
                     NetServerOptions options, ScopedFd listen_fd,
                     uint16_t port)
    : service_(std::move(service)),
      options_(options),
      listen_fd_(std::move(listen_fd)),
      port_(port) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

NetServer::~NetServer() { Stop(); }

void NetServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int raw = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // EINTR / transient accept failure
    }
    auto conn = std::make_unique<Connection>(frames_sent_);
    conn->fd.Reset(raw);
    conn->wake.Reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
    if (options_.recv_timeout_seconds > 0) {
      (void)SetRecvTimeout(raw, options_.recv_timeout_seconds);
    }
    // Replies are small and latency-sensitive; don't let Nagle hold them.
    int one = 1;
    (void)::setsockopt(raw, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    Connection* raw_conn = conn.get();
    // Reap peers gone since the last accept: join their exited readers
    // and close their fds, so connections_ holds live peers only.
    std::vector<std::unique_ptr<Connection>> gone;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire)) return;
      for (auto& c : connections_) {
        if (c->done.load(std::memory_order_acquire)) {
          gone.push_back(std::move(c));
        }
      }
      connections_.erase(
          std::remove(connections_.begin(), connections_.end(), nullptr),
          connections_.end());
      connections_.push_back(std::move(conn));
    }
    raw_conn->reader = std::thread([this, raw_conn] { ReaderLoop(raw_conn); });
    for (auto& c : gone) c->reader.join();
  }
}

void NetServer::ReaderLoop(Connection* conn) {
  const int fd = conn->fd.get();
  const std::chrono::duration<double> window(options_.recv_timeout_seconds);
  std::string payload;
  bool reading = true;
  Clock::time_point stuck_since;  // outbox first seen holding bytes
  bool spin = false;  // the peer's last frame came inside kSpinWindow
  std::unique_lock<std::mutex> lock(conn->mu);
  while (reading || conn->Owed()) {
    if (conn->dead) {
      reading = false;
      conn->Flush(lock);  // discards the outbox
    }
    if ((conn->outbox.empty() && !conn->writing) || conn->dead) {
      stuck_since = Clock::time_point();
    } else if (stuck_since == Clock::time_point()) {
      stuck_since = Clock::now();
    } else if (window.count() > 0 && Clock::now() - stuck_since > window) {
      // The peer stopped reading its replies (kDeadlineExceeded); no
      // kError frame could reach it through the full socket.
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      conn->dead = true;
      ::shutdown(fd, SHUT_RDWR);
      continue;
    }
    if (!conn->Owed()) {  // only a new frame can owe the peer anything
      lock.unlock();
      const Clock::time_point idle = Clock::now();
      if (spin) SpinForInput(fd, idle + kSpinWindow);
      reading = ReadOne(conn, &payload);
      spin = conn->framed_at >= idle && conn->framed_at - idle <= kSpinWindow;
      lock.lock();
      continue;
    }
    if (!reading && (conn->outbox.empty() || conn->writing)) {
      conn->cv.wait(lock);  // replies still computing or being written
      continue;
    }
    // Wait for the next frame (unless the outbox is over its cap), with
    // bytes in the outbox for room to send them, and for the wake-up of
    // the thread that writes the last owed reply.
    pollfd ready[2] = {{fd, 0, 0}, {conn->wake.get(), POLLIN, 0}};
    if (reading && conn->outbox.size() <= kMaxOutboxBytes) {
      ready[0].events = POLLIN;
    }
    if (!conn->outbox.empty()) ready[0].events |= POLLOUT;
    conn->parked = true;
    lock.unlock();
    (void)::poll(ready, 2, kOutboxTickMillis);
    if (ready[1].revents & POLLIN) {
      eventfd_t count;
      (void)eventfd_read(conn->wake.get(), &count);
    }
    if ((ready[0].events & POLLIN) &&
        (ready[0].revents & (POLLIN | POLLHUP | POLLERR))) {
      reading = ReadOne(conn, &payload);
    }
    lock.lock();
    conn->parked = false;
    conn->Flush(lock);
  }
  // Every reserved reply is written, or the peer is gone: FIN.
  lock.unlock();
  ::shutdown(fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
}

bool NetServer::ReadOne(Connection* conn, std::string* payload) {
  Status error;
  const FrameRead got =
      ReadFrame(conn->fd.get(), options_.max_frame_bytes, payload, &error);
  if (got == FrameRead::kIdleTimeout) return true;  // quiet, not stalled
  if (got == FrameRead::kError) Drop(conn, error);
  if (got != FrameRead::kFrame) return false;
  conn->framed_at = Clock::now();
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  MsgType type;
  std::string_view body;
  Status header = DecodeFrameHeader(*payload, &type, &body);
  if (!header.ok()) {
    Drop(conn, header);
    return false;
  }
  return HandleFrame(conn, type, body);
}

void NetServer::Drop(Connection* conn, const Status& error) {
  decode_errors_.fetch_add(1, std::memory_order_relaxed);
  connections_dropped_.fetch_add(1, std::memory_order_relaxed);
  // Best-effort goodbye naming the violation (request id 0).
  WireReply err;
  err.code = error.code();
  err.message = error.message();
  conn->Push(EncodeReplyFrame(err, MsgType::kError));
}

bool NetServer::HandleFrame(Connection* conn, MsgType type,
                            std::string_view body) {
  switch (type) {
    case MsgType::kQuery:
    case MsgType::kTemporalQuery: {
      WireQuery query;
      Status decoded = type == MsgType::kQuery
                           ? DecodeQueryBody(body, &query)
                           : DecodeTemporalQueryBody(body, &query);
      if (!decoded.ok()) {
        Drop(conn, decoded);
        return false;
      }
      // A temporal request is answered in kind: the reply frame carries
      // the family extension only when the peer asked through the
      // temporal codec, so plain-kQuery clients never see layout skew.
      const MsgType reply_type = type == MsgType::kQuery
                                     ? MsgType::kQueryReply
                                     : MsgType::kTemporalReply;
      Connection::Slot* slot = conn->Reserve();
      // Straight to admission: the service's bounded queue is the only
      // buffer between socket and routers. The completing thread (this
      // one, for an inline route) encodes and writes the reply.
      service_->Submit(
          ToQueryRequest(query), query.deadline_micros, query.qos,
          [conn, slot, id = query.request_id,
           reply_type](StatusOr<QueryResult> result) {
            conn->Fill(slot,
                       EncodeReplyFrame(MakeReply(id, result), reply_type));
          });
      return true;
    }
    case MsgType::kStatsRequest:
      conn->Push(EncodeStatsReplyFrame(MakeWireStats(service_->Stats())));
      return true;
    case MsgType::kShutdown: {
      // Flag first: the push below writes the ack at once, and a client
      // holding it must see shutdown_requested().
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      conn->Push(EncodeEmptyFrame(MsgType::kShutdownAck));
      return true;  // keep the connection until the client hangs up
    }
    default:
      // Server-bound traffic only; a client sending reply/ack types
      // is confused or hostile.
      Drop(conn, InvalidArgumentError("unexpected client-bound message type"));
      return false;
  }
}

void NetServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load(std::memory_order_acquire);
  });
}

bool NetServer::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

void NetServer::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    // Unblock accept: shutdown() on a listening socket pops a parked
    // accept with EINVAL. The fd itself is closed only after the join —
    // mutating the ScopedFd while the accept thread still reads it
    // would race (and closing early invites fd-number reuse under it).
    if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    listen_fd_.Reset();
    // Drain the service first: every reply slot is then filled, so the
    // joins below cannot deadlock behind a paused or backed-up backend.
    service_->Shutdown();
    std::vector<std::unique_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns.swap(connections_);
    }
    // Pops each reader out of recv or poll; unsent replies are dropped.
    for (auto& conn : conns) {
      ::shutdown(conn->fd.get(), SHUT_RDWR);
      conn->reader.join();
    }
    shutdown_cv_.notify_all();
  });
}

NetServerStats NetServer::Stats() const {
  NetServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_dropped =
      connections_dropped_.load(std::memory_order_relaxed);
  stats.frames_received = frames_received_.load(std::memory_order_relaxed);
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  return stats;
}

StatusOr<std::unique_ptr<NetServer>> MakeNetServer(
    std::unique_ptr<QueryService> service, NetServerOptions options) {
  if (service == nullptr) {
    return InvalidArgumentError("MakeNetServer requires a service");
  }
  if (options.max_frame_bytes < 64) {
    return InvalidArgumentError(
        "max_frame_bytes must fit at least one query frame (>= 64)");
  }
  if (std::isnan(options.recv_timeout_seconds) ||
      options.recv_timeout_seconds < 0) {
    return InvalidArgumentError(
        "recv_timeout_seconds must be >= 0 (0 disables the guard)");
  }
  auto listener = ListenLoopback(options.port);
  if (!listener.ok()) return listener.status();
  return std::unique_ptr<NetServer>(
      new NetServer(std::move(service), options, std::move(listener->first),
                    listener->second));
}

}  // namespace net
}  // namespace itspq
