#include "query/batch_exec.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>

#include "query/agg.h"
#include "query/exec_internal.h"
#include "util/bloom_filter.h"
#include "util/metrics_registry.h"
#include "util/slice.h"

namespace kb {
namespace query {

namespace {

/// Batch-mode instruments in the default registry.
struct BatchMetrics {
  Counter& batches;
  Counter& bloom_probes;
  Counter& bloom_hits;

  static BatchMetrics& Get() {
    static BatchMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new BatchMetrics{
          r.counter("query.batches"),
          r.counter("query.bloom_probes"),
          r.counter("query.bloom_hits"),
      };
    }();
    return *m;
  }
};

/// One id-column chunk flowing between batch operators: `rows` rows of
/// `cols.size()` slots, column-major so the aggregate and projection
/// stages touch only the columns they need.
struct Chunk {
  size_t rows = 0;
  std::vector<std::vector<rdf::TermId>> cols;

  void Reset(size_t width) {
    cols.resize(width);
    for (auto& col : cols) col.clear();
    rows = 0;
  }
  void PushRow(const Row& row) {
    for (size_t i = 0; i < cols.size(); ++i) cols[i].push_back(row[i]);
    ++rows;
  }
};

/// Don't build a semijoin filter past this many keys: the build scan
/// would rival the probes it saves.
constexpr size_t kMaxBloomKeys = 1u << 22;
constexpr int kBloomBitsPerKey = 10;

/// A per-join-level Bloom semijoin prefilter: the join-key column of
/// the level's constant-bound inner scan, folded into a Bloom filter
/// once at open time. Outer rows whose key definitely has no inner
/// match skip the index probe (and its iterator allocation) entirely.
struct LevelBloom {
  std::string data;
  int probe_slot = -1;

  bool MayContain(rdf::TermId key) const {
    BloomFilterReader reader{Slice(data)};
    return reader.MayContain(
        Slice(reinterpret_cast<const char*>(&key), sizeof(key)));
  }
};

/// Builds the prefilter for `scan` when it is worth it: exactly one
/// probe slot, and the inner side estimated no larger than the leaf
/// scan feeding the pipeline (the "smaller side" rule — a filter of
/// the bigger side costs more to build than the probes it saves).
std::unique_ptr<LevelBloom> MaybeBuildBloom(const rdf::TripleSource& source,
                                            const CompiledScan& scan,
                                            size_t outer_estimate,
                                            QueryStats* stats) {
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  int probe_pos = -1, probes = 0;
  rdf::TriplePattern inner;
  rdf::TermId* pattern_out[3] = {&inner.s, &inner.p, &inner.o};
  for (int i = 0; i < 3; ++i) {
    switch (accesses[i]->kind) {
      case Access::Kind::kConst:
        *pattern_out[i] = accesses[i]->constant;
        break;
      case Access::Kind::kProbe:
        ++probes;
        probe_pos = i;
        break;
      default:
        break;
    }
  }
  if (probes != 1) return nullptr;
  const size_t inner_estimate = source.EstimateCount(inner);
  if (inner_estimate == 0 || inner_estimate > kMaxBloomKeys ||
      inner_estimate > outer_estimate) {
    return nullptr;
  }
  BloomFilterBuilder builder(kBloomBitsPerKey);
  size_t keys = 0;
  source.Scan(inner, [&](const rdf::Triple& t) {
    rdf::TermId key = probe_pos == 0 ? t.s : probe_pos == 1 ? t.p : t.o;
    builder.AddKey(Slice(reinterpret_cast<const char*>(&key), sizeof(key)));
    return ++keys <= kMaxBloomKeys;  // estimate lied: stop growing
  });
  ++stats->index_scans;
  if (keys > kMaxBloomKeys) return nullptr;  // partial filter is unusable
  auto bloom = std::make_unique<LevelBloom>();
  bloom->data = builder.Finish();
  bloom->probe_slot = accesses[probe_pos]->slot;
  return bloom;
}

class BatchOp {
 public:
  virtual ~BatchOp() = default;
  /// Fills `out` with up to batch-size rows; false at end of stream.
  virtual bool Next(Chunk* out) = 0;
};

/// Exactly one all-wildcard row (empty WHERE clause).
class OnceBatchOp : public BatchOp {
 public:
  explicit OnceBatchOp(size_t width) : width_(width) {}
  bool Next(Chunk* out) override {
    out->Reset(width_);
    if (done_) return false;
    done_ = true;
    out->PushRow(Row(width_, rdf::kAnyTerm));
    return true;
  }

 private:
  size_t width_;
  bool done_ = false;
};

/// Leaf: the level-0 index scan, filling id-column chunks.
class BatchScanOp : public BatchOp {
 public:
  BatchScanOp(const rdf::TripleSource* source, const CompiledScan& scan,
              size_t width, size_t batch_size, QueryStats* stats,
              Cursor::CancelState* cancel)
      : source_(source),
        scan_(scan),
        width_(width),
        batch_size_(batch_size),
        stats_(stats),
        cancel_(cancel) {}

  bool Next(Chunk* out) override {
    out->Reset(width_);
    if (iter_ == nullptr) {
      static const Row kNoRow;
      iter_ = source_->NewScan(ScanPattern(scan_, kNoRow));
      ++stats_->index_scans;
      ++stats_->patterns_evaluated;
    }
    while (iter_->Valid() && out->rows < batch_size_) {
      if (cancel_->Expired()) break;
      const rdf::Triple& t = iter_->Value();
      ++stats_->intermediate_rows;
      scratch_.assign(width_, rdf::kAnyTerm);
      bool ok = BindRow(scan_, t, &scratch_);
      iter_->Next();
      if (ok) out->PushRow(scratch_);
    }
    return out->rows > 0;
  }

 private:
  const rdf::TripleSource* source_;
  CompiledScan scan_;
  size_t width_;
  size_t batch_size_;
  QueryStats* stats_;
  Cursor::CancelState* cancel_;
  std::unique_ptr<rdf::ScanIterator> iter_;
  Row scratch_;
};

/// One join level: consumes the child's chunks an outer row at a time,
/// probing the index per row — after the optional Bloom prefilter has
/// ruled the row's join key in.
class BatchJoinOp : public BatchOp {
 public:
  BatchJoinOp(std::unique_ptr<BatchOp> child,
              const rdf::TripleSource* source, const CompiledScan& scan,
              size_t width, size_t batch_size,
              std::unique_ptr<LevelBloom> bloom, QueryStats* stats,
              Cursor::CancelState* cancel)
      : child_(std::move(child)),
        source_(source),
        scan_(scan),
        width_(width),
        batch_size_(batch_size),
        bloom_(std::move(bloom)),
        stats_(stats),
        cancel_(cancel) {}

  bool Next(Chunk* out) override {
    out->Reset(width_);
    for (;;) {
      if (cancel_->expired) return out->rows > 0;
      if (iter_ != nullptr) {
        while (iter_->Valid() && out->rows < batch_size_) {
          if (cancel_->Expired()) break;
          const rdf::Triple& t = iter_->Value();
          ++stats_->intermediate_rows;
          scratch_ = outer_;
          bool ok = BindRow(scan_, t, &scratch_);
          iter_->Next();
          if (ok) out->PushRow(scratch_);
        }
        if (out->rows == batch_size_) return true;
        if (iter_->Valid() && !cancel_->expired) continue;
        iter_.reset();
      }
      // Advance to the next outer row, pulling a fresh chunk from the
      // child when the current one is spent.
      if (input_pos_ >= input_.rows) {
        if (!child_->Next(&input_)) return out->rows > 0;
        input_pos_ = 0;
        if (input_.rows == 0) return out->rows > 0;
      }
      outer_.resize(width_);
      for (size_t c = 0; c < width_; ++c) {
        outer_[c] = input_.cols[c][input_pos_];
      }
      ++input_pos_;
      if (bloom_ != nullptr) {
        ++stats_->bloom_probes;
        if (!bloom_->MayContain(
                outer_[static_cast<size_t>(bloom_->probe_slot)])) {
          continue;  // definitely no inner match: skip the probe
        }
        ++stats_->bloom_hits;
      }
      iter_ = source_->NewScan(ScanPattern(scan_, outer_));
      ++stats_->index_scans;
      ++stats_->patterns_evaluated;
    }
  }

 private:
  std::unique_ptr<BatchOp> child_;
  const rdf::TripleSource* source_;
  CompiledScan scan_;
  size_t width_;
  size_t batch_size_;
  std::unique_ptr<LevelBloom> bloom_;
  QueryStats* stats_;
  Cursor::CancelState* cancel_;
  Chunk input_;
  size_t input_pos_ = 0;
  Row outer_;
  Row scratch_;
  std::unique_ptr<rdf::ScanIterator> iter_;
};

}  // namespace

std::vector<Row> ExecuteBatch(const CompiledPlan& plan,
                              const SelectQuery& query,
                              const rdf::TripleSource& source,
                              const ExecutionOptions& options,
                              QueryStats* stats) {
  if (plan.unmatchable) return {};
  const size_t width = plan.var_names.size();
  const size_t batch_size = std::max<size_t>(options.batch_size, 1);

  Cursor::CancelState cancel;
  if (options.exec.has_deadline()) {
    cancel.armed = true;
    cancel.deadline = options.exec.deadline;
  }

  // Assemble the chain: leaf scan, then one BatchJoinOp per join
  // level, each with its semijoin prefilter when the smaller-side rule
  // says the build pays for itself.
  std::unique_ptr<BatchOp> op;
  if (plan.scans.empty()) {
    op = std::make_unique<OnceBatchOp>(width);
  } else {
    static const Row kNoRow;
    const size_t leaf_estimate =
        source.EstimateCount(ScanPattern(plan.scans[0], kNoRow));
    op = std::make_unique<BatchScanOp>(&source, plan.scans[0], width,
                                       batch_size, stats, &cancel);
    for (size_t i = 1; i < plan.scans.size(); ++i) {
      op = std::make_unique<BatchJoinOp>(
          std::move(op), &source, plan.scans[i], width, batch_size,
          MaybeBuildBloom(source, plan.scans[i], leaf_estimate, stats),
          stats, &cancel);
    }
  }

  GroupAggregator aggregator(plan.agg);
  std::unordered_set<Row, RowHash> seen;  // DISTINCT
  std::vector<Row> out;
  const size_t limit = options.pushdown_limit ? query.limit : 0;
  const size_t max_rows = options.exec.max_rows;
  Chunk chunk;
  bool done = false;
  while (!done && op->Next(&chunk)) {
    ++stats->batches;
    if (cancel.expired) break;
    if (plan.agg.enabled) {
      aggregator.AccumulateColumns(chunk.cols, chunk.rows);
      continue;
    }
    for (size_t r = 0; r < chunk.rows; ++r) {
      Row row(plan.projection_slots.size());
      for (size_t i = 0; i < plan.projection_slots.size(); ++i) {
        row[i] =
            chunk.cols[static_cast<size_t>(plan.projection_slots[i])][r];
      }
      if (plan.distinct && !seen.insert(row).second) continue;
      if (max_rows != 0 && out.size() >= max_rows) {
        stats->max_rows_hit = true;
        done = true;
        break;
      }
      out.push_back(std::move(row));
      if (limit != 0 && out.size() >= limit) {
        done = true;
        break;
      }
    }
  }
  if (cancel.expired) {
    // Same contract as the row path: what was produced is a prefix,
    // flagged — and a partial aggregate would be wrong, so none.
    stats->deadline_exceeded = true;
    stats->rows_streamed += out.size();
    return plan.agg.enabled ? std::vector<Row>() : out;
  }
  if (plan.agg.enabled) {
    stats->agg_groups += aggregator.num_groups();
    out = std::move(aggregator).Finish(query.agg.top_k);
    if (query.limit != 0 && out.size() > query.limit) {
      out.resize(query.limit);
    }
    if (max_rows != 0 && out.size() > max_rows) {
      out.resize(max_rows);
      stats->max_rows_hit = true;
    }
  }
  stats->rows_streamed += out.size();
  return out;
}

void BatchMetricsFlush(const QueryStats& stats) {
  BatchMetrics& metrics = BatchMetrics::Get();
  metrics.batches.Increment(stats.batches);
  if (stats.bloom_probes > 0) {
    metrics.bloom_probes.Increment(stats.bloom_probes);
    metrics.bloom_hits.Increment(stats.bloom_hits);
  }
}

}  // namespace query
}  // namespace kb
