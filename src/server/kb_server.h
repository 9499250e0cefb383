#ifndef KBFORGE_SERVER_KB_SERVER_H_
#define KBFORGE_SERVER_KB_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/knowledge_base.h"
#include "server/event_loop.h"
#include "server/json.h"
#include "server/result_cache.h"
#include "server/wire_fact.h"
#include "util/metrics_registry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace kb {
namespace server {

/// The KB serving layer: an event-driven TCP front door over a
/// KnowledgeBase, speaking length-prefixed JSON (server/protocol.h).
///
/// Endpoints (request field "op"):
///   query        {"op":"query","sparql":...,"deadline_ms"?,"max_rows"?,
///                 "no_cache"?} -> {"status":"ok","cached":bool,
///                 "columns":[...],"rows":[[...]],"row_count":N}
///   entity_card  {"op":"entity_card","entity":canonical,"max_facts"?}
///   insert_facts {"op":"insert_facts","facts":[{"s","p","o"|"year",
///                 "confidence"?,"support"?}]}
///   analytics    {"op":"analytics","job":"pagerank"|"class_stats",
///                 "top_k"?,"damping"?,"iterations"?,"rollup"?,
///                 "insert"?,"property"?,"no_cache"?} -> job summary +
///                 top-k results; with insert=true the results are
///                 also asserted back into the KB as facts
///   health       {"op":"health"}
///   metrics      {"op":"metrics"} -> text snapshot of the PR-1 registry
///
/// Integer fields (deadline_ms, max_rows, max_facts, top_k, iterations,
/// min_epoch, and a fact's year/support/extractor) must be whole numbers
/// that fit the field's type, and iterations must be >= 1; damping must
/// be a finite number in [0, 1]. Anything else is a bad_request naming
/// the field (a bad fact is skipped).
///
/// Production concerns the in-process library lacks:
///   - The shared front door (server/event_loop.h) owns every
///     connection, the bounded request queue, the worker pool and
///     drain; KbServer is only its request handler (HandleFrame). A
///     few epoll threads own every connection fd, so 10k keep-alive
///     clients cost 10k fds, not 10k stacks, and clients may pipeline
///     (answers come back strictly in order). A full queue or the
///     connection cap is answered {"status":"overloaded",
///     "retry_after_ms":R} instead of queueing unboundedly (shed load,
///     keep tail latency of admitted work flat); `server.rejected`
///     counts both.
///   - Per-request deadlines, threaded into the query executor as
///     query::ExecOptions and enforced cooperatively inside the scan
///     loops. An expired query returns a partial-free
///     "deadline_exceeded" error, never silently truncated rows.
///   - A sharded LRU result cache keyed by the normalized query shape
///     (plan-cache key + LIMIT + row cap) and the KB write epoch, so
///     every write batch invalidates by construction (server/
///     result_cache.h).
///
/// Writes go through the `insert_facts` endpoint, which asserts under
/// an exclusive lock (reads hold it shared while touching the
/// dictionary), so term rendering never races interning; the
/// replication hook runs before that lock. External code mutating the KB
/// directly while the server runs must take no such license.
class KbServer {
 public:
  /// The front-door options (port, threads, queue, caps, retry hint)
  /// are FrontDoorOptions'; these are the KB-serving ones.
  struct Options : FrontDoorOptions {
    size_t cache_bytes = 8u << 20;  ///< result cache; 0 disables
    /// Deadline applied when a query request carries none; 0 = none.
    double default_deadline_ms = 0;
    /// Row cap applied when a request carries none; 0 = unlimited.
    size_t default_max_rows = 0;
    /// Follower mode: insert_facts is rejected with "not_leader" (the
    /// router retries against the leader); health reports
    /// role=follower. Replicated writes bypass the endpoint via
    /// WithWriteLock.
    bool read_only = false;
    /// When set, health and min_epoch staleness checks use this
    /// instead of the KB's own epoch. Followers point it at the
    /// replication applied-epoch: their local KB epoch counts replay
    /// progress in *their* numbering, while this is the leader epoch
    /// the replica provably reflects.
    std::function<uint64_t()> applied_epoch_fn;
    /// Leader-side replication hook, called with the validated batch
    /// *before* the exclusive KB lock is taken and before any fact is
    /// asserted, so readers never wait on its fsync. A failure aborts
    /// the whole insert — the durability order is log first, KB
    /// second, so a published epoch E always means "every write <= E
    /// is in the replication log". Concurrent batches may therefore
    /// reach the KB in a different order than the hook logged them.
    /// That is safe: asserting the same fact twice merges metadata
    /// (max confidence, summed support), which commutes, and followers
    /// already apply the log's shards out of global sequence order.
    /// What does depend on apply order is local: which of two batches
    /// carrying the same fact reports it `inserted` rather than
    /// `merged`, and whose extractor id (not in the log) is kept.
    /// Its latency is recorded in the repl.append_ms histogram.
    std::function<Status(const std::vector<WireFact>&)> pre_insert_hook;
  };

  /// The server serves `kb` (borrowed; must outlive the server).
  KbServer(core::KnowledgeBase* kb, const Options& options);
  ~KbServer();

  KbServer(const KbServer&) = delete;
  KbServer& operator=(const KbServer&) = delete;

  /// Binds, listens and spawns the I/O and worker threads.
  Status Start();

  /// Stops and joins everything. Idempotent.
  void Stop();

  /// EventServer::Drain: shed new connections, close each established
  /// one after its next response, Stop() after `timeout_ms` at most.
  /// What kbforge_serve runs on SIGTERM.
  void Drain(double timeout_ms);

  /// The bound port (valid after Start; resolves port 0).
  int port() const { return event_server_ ? event_server_->port() : 0; }

  const core::KnowledgeBase* kb() const { return kb_; }

  /// Runs `fn` under the exclusive KB lock — the same lock the insert
  /// endpoint holds — so out-of-band writers (a follower's replication
  /// replay) serialize against in-flight reads.
  void WithWriteLock(const std::function<void()>& fn);

  /// The epoch this server claims to reflect (see applied_epoch_fn).
  uint64_t applied_epoch() const;

 private:
  struct Metrics;

  /// One request payload -> its response: the front door's handler.
  std::string HandleFrame(const std::string& payload);

  std::string HandleRequest(const Json& request);
  /// Non-empty = the "stale_replica" error response for a request
  /// whose min_epoch this server has not applied yet.
  std::string CheckMinEpoch(const Json& request) const;
  std::string HandleQuery(const Json& request);
  std::string HandleEntityCard(const Json& request);
  std::string HandleInsertFacts(const Json& request);
  std::string HandleAnalytics(const Json& request);
  /// The lazily created shared pool analytics jobs shard across.
  ThreadPool* AnalyticsPool();
  std::string HandleHealth() const;
  std::string HandleMetrics() const;

  core::KnowledgeBase* kb_;
  Options options_;
  ResultCache result_cache_;
  Metrics* metrics_;  ///< registry-owned instruments, never freed

  std::unique_ptr<EventServer> event_server_;
  std::chrono::steady_clock::time_point started_at_{};

  /// Reads (query parse/execute/render, entity cards, analytics
  /// scans) hold this shared for their full KB access; the insert
  /// endpoint and WithWriteLock hold it exclusive. Because every read
  /// path is inside the shared side, an exclusive holder has truly
  /// quiesced the KB — which is what lets kbforge_serve run
  /// KbVolume::Checkpoint (a KB move-assign) under WithWriteLock while
  /// serving.
  mutable std::shared_mutex kb_mu_;

  std::mutex analytics_pool_mu_;
  std::unique_ptr<ThreadPool> analytics_pool_;
};

}  // namespace server
}  // namespace kb

#endif  // KBFORGE_SERVER_KB_SERVER_H_
