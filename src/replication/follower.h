#ifndef KBFORGE_REPLICATION_FOLLOWER_H_
#define KBFORGE_REPLICATION_FOLLOWER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/knowledge_base.h"
#include "replication/repl_protocol.h"
#include "server/kb_server.h"
#include "storage/sharded_kv_store.h"
#include "util/statusor.h"

namespace kb {
namespace replication {

/// A follower replica's replication engine. It keeps three things in
/// lockstep:
///
///   - a local ShardedKVStore holding every shipped "f:<seq>" record,
///     one per leader write batch (the durable copy — a restart
///     rebuilds from here, not from the network),
///   - the in-memory KnowledgeBase the read-only KbServer serves
///     (base content built deterministically, identical to the
///     leader's; replicated facts asserted on top),
///   - per-shard replay positions + the applied epoch, persisted as
///     meta keys in the local store so a crash resumes where it left
///     off.
///
/// Positions are persisted lazily (once per applied round, unsynced):
/// after a crash they may be *behind* the truth, never ahead, and the
/// leader then re-ships a suffix the follower already holds — safe,
/// because Puts of identical records and KB asserts are idempotent.
/// The applied epoch is persisted only on complete rounds, so it,
/// too, only ever understates.
///
/// The session thread reconnects forever (jittered backoff) until
/// Stop(): a leader stall or torn connection is indistinguishable
/// from a slow network and is treated the same way.
class FollowerReplica {
 public:
  struct Options {
    int leader_repl_port = 0;  ///< the leader WalShipper's port
    std::string data_dir;
    /// Shard count for the *local* store (independent of the leader's
    /// log layout — chunks are keyed by leader shard, stored by key
    /// hash here).
    int num_shards = 4;
    double reconnect_backoff_ms = 50;
    /// Filesystem seam (nullptr = Env::Default()); the chaos suite
    /// injects a FaultInjectionEnv to crash the replica mid-replay.
    storage::Env* env = nullptr;
  };

  /// Opens (crash-recovering) the local store, replays every stored
  /// fact into `kb`, and loads persisted positions. `kb` must already
  /// hold the deterministic base content and must outlive the
  /// replica. `server`, when non-null, provides the write lock that
  /// serializes replay against in-flight reads (and should have
  /// applied_epoch_fn pointing at this replica).
  static StatusOr<std::unique_ptr<FollowerReplica>> Open(
      const Options& options, core::KnowledgeBase* kb,
      server::KbServer* server);

  ~FollowerReplica();

  FollowerReplica(const FollowerReplica&) = delete;
  FollowerReplica& operator=(const FollowerReplica&) = delete;

  /// Spawns the replication session thread.
  Status Start();
  void Stop();

  /// Leader epoch this replica provably reflects.
  uint64_t applied_epoch() const {
    return applied_epoch_.load(std::memory_order_acquire);
  }
  /// Total facts decoded and asserted, counted per fact, not per log
  /// record (includes idempotent re-applies after a restart).
  uint64_t applied_records() const {
    return applied_records_.load(std::memory_order_acquire);
  }
  /// True while a session is live past the handshake.
  bool connected() const { return connected_.load(std::memory_order_acquire); }

  storage::ShardedKVStore* store() { return store_.get(); }

 private:
  /// Streaming replay cursor for one shard of the leader's log.
  struct ShardState {
    uint64_t gen = 0;
    uint64_t parsed_offset = 0;  ///< record boundary inside `gen`
    std::string buffer;          ///< shipped bytes not yet parsed
  };

  FollowerReplica() = default;

  void SessionLoop();
  Status RunSession();
  Status ApplyChunk(const WalChunk& chunk);
  /// Applies one shipped log record: one Put of the durable copy, then
  /// the KB asserts of its whole batch under one hold of the server's
  /// write lock (when a server is attached). Observes repl.apply_us.
  Status ApplyRecord(const Slice& key, const Slice& value);
  Status PersistPositions(bool with_epoch, uint64_t epoch);

  Options options_;
  core::KnowledgeBase* kb_ = nullptr;
  server::KbServer* server_ = nullptr;
  std::unique_ptr<storage::ShardedKVStore> store_;
  std::vector<ShardState> shards_;

  std::atomic<uint64_t> applied_epoch_{0};
  std::atomic<uint64_t> applied_records_{0};
  std::atomic<bool> connected_{false};
  std::atomic<bool> stopping_{false};

  std::mutex mu_;
  std::condition_variable stop_cv_;
  int fd_ = -1;  ///< live session socket (shutdown() by Stop)
  std::thread session_;
  bool started_ = false;
};

}  // namespace replication
}  // namespace kb

#endif  // KBFORGE_REPLICATION_FOLLOWER_H_
