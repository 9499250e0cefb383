#include "replication/repl_log.h"

#include <utility>

#include "replication/repl_protocol.h"
#include "util/slice.h"
#include "util/status.h"

namespace kb {
namespace replication {

StatusOr<std::unique_ptr<ReplicationLog>> ReplicationLog::Open(
    const Options& options, const std::string& path) {
  storage::ShardedStoreOptions store_options;
  store_options.num_shards = options.num_shards;
  store_options.store.retain_wals = true;
  store_options.store.memtable_flush_bytes = options.memtable_bytes;
  store_options.store.env = options.env;
  auto store = storage::ShardedKVStore::Recover(store_options, path);
  if (!store.ok()) return store.status();

  auto log = std::unique_ptr<ReplicationLog>(new ReplicationLog());
  log->store_ = std::move(*store);
  // Resume the sequence after the last persisted batch: its key is the
  // batch's first sequence number, and its value says how many facts
  // the batch holds. The scan is globally key-ordered, and fixed-width
  // keys make key order equal append order.
  uint64_t last_seq = 0;
  bool any = false;
  Status s = log->store_->Scan(
      Slice(kFactKeyPrefix), Slice("f;"),  // ';' is ':' + 1
      [&](const Slice& key, const Slice&) {
        uint64_t seq = 0;
        if (ParseFactKey(key, &seq)) {
          last_seq = seq;
          any = true;
        }
        return true;
      });
  if (!s.ok()) return s;
  if (any) {
    std::string value;
    s = log->store_->Get(Slice(FactKey(last_seq)), &value);
    std::vector<server::WireFact> last_batch;
    if (s.ok()) s = DecodeFactBatch(Slice(value), &last_batch);
    if (!s.ok()) return s;
    log->next_seq_ = last_seq + last_batch.size();
  }
  return log;
}

Status ReplicationLog::Append(const std::vector<server::WireFact>& batch) {
  if (batch.empty()) return Status::OK();
  std::string value;
  for (const server::WireFact& fact : batch) value += EncodeFactRecord(fact);
  std::lock_guard<std::mutex> lock(mu_);
  Status s = store_->Put(FactKey(next_seq_), value);
  if (!s.ok()) return s;
  next_seq_ += batch.size();
  return Status::OK();
}

uint64_t ReplicationLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

}  // namespace replication
}  // namespace kb
