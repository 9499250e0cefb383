#ifndef KBFORGE_SERVER_EVENT_LOOP_H_
#define KBFORGE_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/conn.h"
#include "util/metrics_registry.h"
#include "util/status.h"

namespace kb {
namespace server {

/// The shared event-driven server core (DESIGN.md §5f): the whole
/// front door, so an owner (KbServer, the replication Router) supplies
/// nothing but a request handler.
///
/// A small fixed set of I/O threads — each one an epoll EventLoop —
/// owns the listen socket (every loop registers it EPOLLEXCLUSIVE, so
/// the kernel wakes exactly one loop per connection burst) and all
/// accepted connection fds. Loops never execute request logic: they
/// parse length-prefixed frames incrementally out of per-connection
/// read buffers, admission-check each complete frame into one bounded
/// request queue, and flush completed responses from per-connection
/// write queues with batched writev, falling back to EPOLLOUT when a
/// peer stops draining. A fixed worker pool pops the queue, runs the
/// owner's `handle` and completes the response back onto the owning
/// loop. Connection count is therefore decoupled from thread count:
/// ten thousand idle keep-alive clients cost ten thousand fds and
/// nothing else.
///
/// Every bounded resource sheds instead of blocking: a full queue
/// answers the request `overloaded` + `retry_after_ms` and closes after
/// the in-order flush; the connection cap (and draining) answers a
/// fresh accept the same way. An unframeable stream is answered
/// `bad_frame` and closed.

/// The front-door options, declared once: KbServer::Options and
/// Router::Options inherit them.
struct FrontDoorOptions {
  int port = 0;       ///< 0 = ephemeral; see EventServer::port()
  int io_threads = 2;  ///< epoll I/O threads
  int backlog = 0;     ///< listen(2) backlog; <= 0 means SOMAXCONN
  /// Open-connection cap: accepts past it are shed with the overload
  /// hint instead of blocking accept. 0 derives num_workers +
  /// queue_depth (every worker busy plus a full queue); raise it
  /// explicitly (e.g. the concurrency bench) to hold thousands of
  /// keep-alive connections.
  size_t max_connections = 0;
  /// Connections with no traffic and no request in flight for this
  /// long are closed (idle_closed metric). 0 = never.
  double idle_timeout_ms = 0;
  /// Parsed-but-unanswered frames allowed per connection. At the cap
  /// the loop stops reading that connection (EPOLLIN disarmed) until
  /// responses drain below half — backpressure instead of unbounded
  /// buffering for a client that pipelines faster than workers drain.
  size_t max_pipeline = 128;
  int num_workers = 4;      ///< request-handling threads
  size_t queue_depth = 16;  ///< admitted requests before shedding
  int retry_after_ms = 20;  ///< hint returned with every overload shed
};

/// Registry-owned instruments the core updates. The owner names them
/// (server.* or router.*); any may be null.
struct EventMetrics {
  Gauge* open_connections = nullptr;
  Gauge* queue_depth = nullptr;
  Counter* epoll_wakeups = nullptr;
  Counter* pipelined_frames = nullptr;
  Counter* idle_closed = nullptr;
  Counter* rejected = nullptr;  ///< shed accepts and shed requests
  Counter* errors = nullptr;    ///< unframeable streams
};

/// What the owner supplies.
struct EventHooks {
  /// One request payload -> its response. Runs on a worker thread and
  /// may block (a KB read, a backend round trip).
  std::function<std::string(const std::string& payload)> handle;
};

class EventServer;

class EventLoop {
 public:
  explicit EventLoop(EventServer* server);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance + wake eventfd and registers
  /// `listen_fd` (EPOLLEXCLUSIVE). Call before Run.
  Status Init(int listen_fd);
  /// Spawns the loop thread.
  void Start();
  /// Posts a stop task, lets the loop close every connection it owns,
  /// and joins the thread. Idempotent.
  void Stop();

  /// Thread-safe: run `fn` on the loop thread. Dropped (with `fn`
  /// destroyed) once the loop has stopped.
  void Post(std::function<void()> fn);

 private:
  friend class Conn;

  void Run();
  void RunPosts();
  void AcceptReady();
  void ShedAccept(int fd);
  void HandleConnEvent(Conn* conn, uint32_t events);
  void ReadReady(Conn* conn);
  void ParseFrames(Conn* conn);
  /// Sequences a completed response; flushes everything now in order.
  void CompleteOnLoop(Conn* conn, uint64_t seq, std::string&& response,
                      bool close_after);
  void FlushReady(Conn* conn);
  void TryWrite(Conn* conn);
  void UpdateInterest(Conn* conn);
  void SweepIdle();
  void CloseConn(Conn* conn);
  void CloseAll();

  EventServer* server_;
  const FrontDoorOptions& options_;
  const EventMetrics& metrics_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd; Post() and Stop() write it
  int listen_fd_ = -1;
  uint64_t next_conn_id_ = 0;

  std::unordered_map<int, ConnRef> conns_;
  /// Conns closed mid-batch; their memory must outlive the epoll_wait
  /// batch that may still carry events for them (handlers check
  /// closed_). Cleared at the top of every iteration.
  std::vector<ConnRef> graveyard_;
  std::chrono::steady_clock::time_point last_sweep_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posts_;
  bool stopped_ = false;         ///< guarded by post_mu_; drops Posts
  bool stop_requested_ = false;  ///< loop-thread flag set via Post

  std::thread thread_;
};

/// N EventLoops + one listen socket + the worker pool. See the file
/// comment.
class EventServer {
 public:
  EventServer(const FrontDoorOptions& options, const EventMetrics& metrics,
              EventHooks hooks);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds 127.0.0.1:port, listens, spawns the workers and the I/O
  /// threads.
  Status Start();
  /// Closes the listen socket and every connection, joins the I/O
  /// threads, then the workers; requests still queued are dropped.
  /// Idempotent.
  void Stop();

  /// Graceful shutdown: fresh accepts are shed with the retry hint (so
  /// a router fails over), each established connection closes right
  /// after its next response, and once every connection is gone — or
  /// `timeout_ms` has passed — Stop().
  void Drain(double timeout_ms);

  int port() const { return port_; }

 private:
  friend class EventLoop;

  /// One parsed frame waiting for (or held by) a worker.
  struct PendingRequest {
    ConnRef conn;
    uint64_t seq = 0;
    std::string payload;
  };

  /// I/O-thread side of the handoff: admission-check into the bounded
  /// queue, shedding with the retry hint when it is full.
  void Admit(const ConnRef& conn, uint64_t seq, std::string payload);
  void WorkerLoop();

  FrontDoorOptions options_;
  const EventMetrics metrics_;
  const EventHooks hooks_;
  const std::string overloaded_;  ///< OverloadedJson(retry_after_ms)
  std::atomic<size_t> open_conns_{0};
  std::atomic<bool> draining_{false};

  int listen_fd_ = -1;
  int port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<PendingRequest> queue_;  ///< admitted, not yet picked up
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_EVENT_LOOP_H_
