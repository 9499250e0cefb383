#ifndef KBFORGE_REPLICATION_REPL_LOG_H_
#define KBFORGE_REPLICATION_REPL_LOG_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/wire_fact.h"
#include "storage/sharded_kv_store.h"
#include "util/statusor.h"

namespace kb {
namespace replication {

/// The leader's replication log: a ShardedKVStore opened with
/// retain_wals, holding one "f:<seq>" record per accepted write batch
/// (see FactKey / DecodeFactBatch). The store's numbered WAL
/// generations *are* the log a WalShipper streams — no separate log
/// format, no snapshot: a brand-new follower simply starts every shard
/// at (gen of the oldest retained WAL, 0) and replays forward, because
/// retained generations are prefix-closed (the store never deletes a
/// retained generation and flush order matches append order).
///
/// Append() is called from KbServer's pre-insert hook, before the
/// server takes its exclusive KB lock and before the KB asserts — so
/// by the time any epoch E is observable, every write counted by E is
/// already fsynced here (sync_wal stays on). One batch is one record:
/// one WAL append and one fsync, and a failed append leaves none of
/// the batch in the log.
class ReplicationLog {
 public:
  struct Options {
    int num_shards = 4;
    /// Memtable budget per shard; small by default so generations roll
    /// frequently enough to exercise multi-generation catch-up.
    size_t memtable_bytes = 1u << 20;
    /// Filesystem seam (nullptr = Env::Default()); chaos tests inject
    /// a FaultInjectionEnv here.
    storage::Env* env = nullptr;
  };

  /// Opens (or crash-recovers) the log at directory `path`. The next
  /// fact sequence resumes after the last fact of the last persisted
  /// batch.
  static StatusOr<std::unique_ptr<ReplicationLog>> Open(
      const Options& options, const std::string& path);

  /// Durably appends the batch as one record, all or nothing; the
  /// KbServer hook contract (log fully ahead of the KB) holds because
  /// Put fsyncs before it returns. Sequence numbers count facts: the
  /// batch takes [next_seq(), next_seq() + batch.size()).
  Status Append(const std::vector<server::WireFact>& batch);

  storage::ShardedKVStore* store() { return store_.get(); }
  uint64_t next_seq() const;

 private:
  ReplicationLog() = default;

  std::unique_ptr<storage::ShardedKVStore> store_;
  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
};

}  // namespace replication
}  // namespace kb

#endif  // KBFORGE_REPLICATION_REPL_LOG_H_
