#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <utility>

namespace itspq {
namespace net {

// One accepted socket plus its reply pipeline. The reader pushes an
// entry per query (future resolved by the service) or per immediate
// frame (stats, shutdown ack); the writer drains them strictly FIFO so
// a client can pipeline queries and match replies by order as well as
// by id.
struct NetServer::Connection {
  ScopedFd fd;
  std::thread reader;
  std::thread writer;

  struct Outgoing {
    /// Query replies carry the future + id; immediate frames (stats,
    /// acks, errors) arrive pre-encoded in `frame`.
    bool is_query = false;
    uint64_t request_id = 0;
    /// What the writer encodes the resolved future as: kQueryReply for
    /// kQuery requests, kTemporalReply (base + family extension) for
    /// kTemporalQuery ones.
    MsgType reply_type = MsgType::kQueryReply;
    std::future<StatusOr<QueryResult>> future;
    std::string frame;
  };

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Outgoing> outgoing;  // guarded by mu
  bool closing = false;           // guarded by mu
  /// Reader and writer each add 1 as their last touch of the
  /// connection; at 2 the accept thread may join and free it.
  std::atomic<int> loops_done{0};

  void Push(Outgoing item) {
    {
      std::lock_guard<std::mutex> lock(mu);
      outgoing.push_back(std::move(item));
    }
    cv.notify_one();
  }

  /// Tells the writer to drain what's queued and exit. `force` also
  /// shuts the socket down immediately — Stop() uses it to yank a
  /// reader out of recv and a writer out of send; the reader's natural
  /// exit does NOT force, so the final error/ack frame it just pushed
  /// still reaches the peer before the writer sends FIN.
  void Close(bool force) {
    {
      std::lock_guard<std::mutex> lock(mu);
      closing = true;
    }
    cv.notify_all();
    if (force && fd.valid()) ::shutdown(fd.get(), SHUT_RDWR);
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
    auto conn = std::make_unique<Connection>();
    conn->fd.Reset(raw);
    if (options_.recv_timeout_seconds > 0) {
      (void)SetRecvTimeout(raw, options_.recv_timeout_seconds);
    }
    // Replies are small and latency-sensitive; don't let Nagle hold them.
    int one = 1;
    (void)::setsockopt(raw, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    Connection* raw_conn = conn.get();
    // Reap peers gone since the last accept: join their exited threads
    // and close their fds, so connections_ holds live peers only.
    std::vector<std::unique_ptr<Connection>> gone;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_.load(std::memory_order_acquire)) return;
      for (auto& c : connections_) {
        if (c->loops_done.load(std::memory_order_acquire) == 2) {
          gone.push_back(std::move(c));
        }
      }
      connections_.erase(
          std::remove(connections_.begin(), connections_.end(), nullptr),
          connections_.end());
      connections_.push_back(std::move(conn));
    }
    raw_conn->reader = std::thread([this, raw_conn] { ReaderLoop(raw_conn); });
    raw_conn->writer = std::thread([this, raw_conn] { WriterLoop(raw_conn); });
    for (auto& c : gone) {
      c->reader.join();
      c->writer.join();
    }
  }
}

void NetServer::ReaderLoop(Connection* conn) {
  std::string payload;
  while (true) {
    Status error;
    const FrameRead got =
        ReadFrame(conn->fd.get(), options_.max_frame_bytes, &payload, &error);
    if (got == FrameRead::kIdleTimeout) continue;  // quiet, not stalled
    if (got == FrameRead::kCleanClose) break;
    if (got == FrameRead::kError) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      // Best-effort goodbye naming the violation, then drop the peer.
      WireReply err;
      err.request_id = 0;
      err.code = error.code();
      err.message = error.message();
      Connection::Outgoing out;
      out.frame = EncodeReplyFrame(err, MsgType::kError);
      conn->Push(std::move(out));
      break;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    MsgType type;
    std::string_view body;
    Status header = DecodeFrameHeader(payload, &type, &body);
    if (!header.ok()) {
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      WireReply err;
      err.code = header.code();
      err.message = header.message();
      Connection::Outgoing out;
      out.frame = EncodeReplyFrame(err, MsgType::kError);
      conn->Push(std::move(out));
      break;
    }
    if (!HandleFrame(conn, type, body)) break;
  }
  conn->Close(/*force=*/false);
  conn->loops_done.fetch_add(1, std::memory_order_release);
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
        decode_errors_.fetch_add(1, std::memory_order_relaxed);
        connections_dropped_.fetch_add(1, std::memory_order_relaxed);
        WireReply err;
        err.code = decoded.code();
        err.message = decoded.message();
        Connection::Outgoing out;
        out.frame = EncodeReplyFrame(err, MsgType::kError);
        conn->Push(std::move(out));
        return false;
      }
      Connection::Outgoing out;
      out.is_query = true;
      out.request_id = query.request_id;
      // A temporal request is answered in kind: the reply frame carries
      // the family extension only when the peer asked through the
      // temporal codec, so plain-kQuery clients never see layout skew.
      if (type == MsgType::kTemporalQuery) {
        out.reply_type = MsgType::kTemporalReply;
      }
      // Hand the request straight to admission: the service's bounded
      // queue (and its QoS shedding) is the only buffer between the
      // socket and the routers.
      out.future = service_->Submit(ToQueryRequest(query),
                                    query.deadline_micros, query.qos);
      conn->Push(std::move(out));
      return true;
    }
    case MsgType::kStatsRequest: {
      Connection::Outgoing out;
      out.frame = EncodeStatsReplyFrame(MakeWireStats(service_->Stats()));
      conn->Push(std::move(out));
      return true;
    }
    case MsgType::kShutdown: {
      Connection::Outgoing out;
      out.frame = EncodeEmptyFrame(MsgType::kShutdownAck);
      conn->Push(std::move(out));
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
      }
      shutdown_cv_.notify_all();
      return true;  // keep the connection until the client hangs up
    }
    default:
      // Server-bound traffic only; a client sending reply/ack types
      // is confused or hostile.
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      WireReply err;
      err.code = StatusCode::kInvalidArgument;
      err.message = "unexpected client-bound message type";
      Connection::Outgoing out;
      out.frame = EncodeReplyFrame(err, MsgType::kError);
      conn->Push(std::move(out));
      return false;
  }
}

void NetServer::WriterLoop(Connection* conn) {
  while (true) {
    Connection::Outgoing item;
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      conn->cv.wait(lock,
                    [conn] { return conn->closing || !conn->outgoing.empty(); });
      // Drain what's queued even when closing: the error/ack frame the
      // reader pushed on its way out must still reach the peer.
      if (conn->outgoing.empty()) break;
      item = std::move(conn->outgoing.front());
      conn->outgoing.pop_front();
    }
    std::string frame;
    if (item.is_query) {
      frame = EncodeReplyFrame(MakeReply(item.request_id, item.future.get()),
                               item.reply_type);
    } else {
      frame = std::move(item.frame);
    }
    // A dead peer just ends the pipeline; replies still queued are
    // dropped (their promises resolve in the service regardless).
    if (!WriteFrame(conn->fd.get(), frame).ok()) break;
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
  }
  // The writer owns the goodbye: FIN after the last delivered frame,
  // which also pops a reader still parked in recv on this socket.
  if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
  conn->loops_done.fetch_add(1, std::memory_order_release);
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
    // Drain the service first: every future a writer may be blocked on
    // resolves (served or kDeadlineExceeded), so the joins below cannot
    // deadlock behind a paused or backed-up backend.
    service_->Shutdown();
    std::vector<std::unique_ptr<Connection>> conns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns.swap(connections_);
    }
    for (auto& conn : conns) {
      conn->Close(/*force=*/true);
      if (conn->reader.joinable()) conn->reader.join();
      if (conn->writer.joinable()) conn->writer.join();
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
