#include "query/engine.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "query/agg.h"
#include "rdf/term.h"
#include "util/bloom_filter.h"
#include "util/metrics_registry.h"
#include "util/slice.h"
#include "util/string_util.h"

namespace kb {
namespace query {

namespace {

/// Executor instruments in the default registry.
struct QueryMetrics {
  Counter& executions;
  Counter& rows;
  Counter& rows_streamed;
  Counter& index_scans;
  Counter& plan_cache_hits;
  Counter& plan_cache_misses;
  Counter& agg_groups;
  Counter& batches;
  Counter& bloom_probes;
  Counter& bloom_hits;
  Histogram& execute_ms;

  static QueryMetrics& Get() {
    static QueryMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new QueryMetrics{
          r.counter("query.executions"),
          r.counter("query.rows"),
          r.counter("query.rows_streamed"),
          r.counter("query.index_scans"),
          r.counter("query.plan_cache_hits"),
          r.counter("query.plan_cache_misses"),
          r.counter("query.agg_groups"),
          r.counter("query.batches"),
          r.counter("query.bloom_probes"),
          r.counter("query.bloom_hits"),
          r.histogram("query.execute_ms"),
      };
    }();
    return *m;
  }
};

/// Largest chunk one pull moves. Chunks start at one row and double
/// per pull up to this size: a consumer that stops early (LIMIT, an
/// abandoned cursor) has paid for about as many rows as it took, while
/// a long drain amortizes per-chunk work over 1024 rows.
constexpr size_t kMaxChunkRows = 1024;

/// Don't build a semijoin filter past this many keys: the build scan
/// would rival the probes it saves.
constexpr size_t kMaxBloomKeys = 1u << 22;
constexpr int kBloomBitsPerKey = 10;

/// Cooperative cancellation for one execution. The scan loops poll
/// Expired(), so a deadline cuts off even executions that churn
/// through intermediate triples without ever surfacing a row. The
/// clock is only consulted every kCheckStride polls (a steady_clock
/// read per triple would dominate scan cost); once expired, the state
/// latches.
struct CancelState {
  static constexpr uint32_t kCheckStride = 256;

  std::chrono::steady_clock::time_point deadline{};
  uint32_t polls_until_check = 0;  ///< first poll checks the clock
  bool armed = false;
  bool expired = false;

  bool Expired() {
    if (!armed || expired) return expired;
    if (polls_until_check > 0) {
      --polls_until_check;
      return false;
    }
    polls_until_check = kCheckStride - 1;
    expired = std::chrono::steady_clock::now() >= deadline;
    return expired;
  }
};

/// One id-column chunk: `rows` rows of `cols.size()` slots,
/// column-major so the aggregate and projection stages touch only the
/// columns they need.
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

/// Scan pattern for one level: constants and probe slots resolved
/// against the outer row (the leaf has no probe slots).
rdf::TriplePattern ScanPattern(const CompiledScan& scan, const Row& outer) {
  rdf::TriplePattern pattern;
  rdf::TermId* out[3] = {&pattern.s, &pattern.p, &pattern.o};
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  for (int i = 0; i < 3; ++i) {
    switch (accesses[i]->kind) {
      case Access::Kind::kConst:
        *out[i] = accesses[i]->constant;
        break;
      case Access::Kind::kProbe:
        *out[i] = outer[static_cast<size_t>(accesses[i]->slot)];
        break;
      default:
        break;  // kBind/kCheck stay wild
    }
  }
  return pattern;
}

/// Applies one matched triple to the row: binds fresh slots, verifies
/// constants, probes and repeated variables. Returns false if the
/// triple does not extend the row.
bool BindRow(const CompiledScan& scan, const rdf::Triple& t, Row* row) {
  const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
  const rdf::TermId values[3] = {t.s, t.p, t.o};
  for (int i = 0; i < 3; ++i) {
    const Access& a = *accesses[i];
    switch (a.kind) {
      case Access::Kind::kConst:
        if (values[i] != a.constant) return false;
        break;
      case Access::Kind::kProbe:
      case Access::Kind::kCheck:
        if ((*row)[static_cast<size_t>(a.slot)] != values[i]) return false;
        break;
      case Access::Kind::kBind:
        (*row)[static_cast<size_t>(a.slot)] = values[i];
        break;
    }
  }
  return true;
}

/// One pattern of the left-deep pipeline. Level 0 is the leaf index
/// scan; each later level is an index nested-loop join that probes
/// the index once per outer row of the level below.
struct Level {
  explicit Level(const CompiledScan& compiled) : scan(compiled) {
    const Access* accesses[3] = {&scan.s, &scan.p, &scan.o};
    rdf::TermId* inner[3] = {&bloom_inner.s, &bloom_inner.p, &bloom_inner.o};
    int probes = 0;
    for (int i = 0; i < 3; ++i) {
      if (accesses[i]->kind == Access::Kind::kConst) {
        *inner[i] = accesses[i]->constant;
      } else if (accesses[i]->kind == Access::Kind::kProbe) {
        ++probes;
        bloom_pos = i;
        bloom_slot = accesses[i]->slot;
      }
    }
    if (probes != 1) bloom_pos = -1;
  }

  CompiledScan scan;
  std::unique_ptr<rdf::ScanIterator> iter;  ///< the open index scan
  Row outer;    ///< join levels: the outer row being extended
  Row scratch;  ///< the row under construction
  Chunk input;  ///< join levels: outer rows pulled from below
  size_t input_pos = 0;

  /// Bloom semijoin prefilter state. bloom_pos is the triple position
  /// of the level's only probe slot while a filter may still be built
  /// (-1 once decided, or for levels with no or several probe slots);
  /// bloom_inner is the level's constant-only inner pattern.
  int bloom_pos = -1;
  int bloom_slot = -1;  ///< row slot of the filtered join key
  rdf::TriplePattern bloom_inner;
  uint64_t outer_rows = 0;  ///< outer rows received so far
  size_t inner_estimate = 0;
  bool estimated = false;
  std::string bloom;  ///< the built filter; empty = none

  bool BloomRejects(const Row& row) const {
    rdf::TermId key = row[static_cast<size_t>(bloom_slot)];
    return !BloomFilterReader(Slice(bloom)).MayContain(
        Slice(reinterpret_cast<const char*>(&key), sizeof(key)));
  }
};

}  // namespace

// ---------------------------------------------------------- Pipeline

/// The execution state behind a Cursor: the pipeline levels, the
/// consumer tail (projection + DISTINCT, or the aggregate) and the
/// row-major buffer of projected rows Cursor::Next hands out.
struct Cursor::Pipeline {
  Pipeline(const CompiledPlan& compiled, const rdf::TripleSource* src,
           const ExecutionOptions& options, size_t limit_rows,
           size_t top_k_groups)
      : plan(compiled),
        source(src),
        width(compiled.var_names.size()),
        limit(limit_rows),
        max_rows(options.exec.max_rows),
        top_k(top_k_groups) {
    if (options.exec.has_deadline()) {
      cancel.armed = true;
      cancel.deadline = options.exec.deadline;
    }
    for (const CompiledScan& scan : plan.scans) levels.emplace_back(scan);
    out_width = plan.agg.enabled ? plan.projection_names.size()
                                 : plan.projection_slots.size();
    done = plan.unmatchable;
  }

  /// Fills `out` with up to `capacity` rows of level `i`; false when
  /// the level is exhausted (or the deadline expired) with none.
  bool Pull(size_t i, size_t capacity, Chunk* out);
  /// Builds `level`'s Bloom prefilter once it pays.
  void MaybeBuildBloom(Level* level);
  /// Pulls the next chunk of the whole pipeline.
  bool PullTop(size_t capacity, Chunk* out);
  /// Refills the output buffer; false at end of stream.
  bool Refill();
  /// Projects pipeline chunks of at most `capacity` rows into the
  /// output buffer until it holds a row; false if none is left.
  bool Fill(size_t capacity);
  /// Drains the pipeline into the hash aggregate and buffers its rows.
  void Aggregate();

  const CompiledPlan& plan;
  const rdf::TripleSource* source;
  const size_t width;     ///< pipeline row width (plan slots)
  const size_t limit;     ///< LIMIT (0 = none)
  const size_t max_rows;  ///< ExecOptions row cap (0 = none)
  const size_t top_k;
  QueryStats stats;
  CancelState cancel;
  std::vector<Level> levels;
  bool once_done = false;  ///< empty WHERE: its one row was produced
  size_t next_capacity = 1;
  bool started = false;
  bool done = false;
  Chunk chunk;  ///< the top level's latest chunk
  std::unordered_set<Row, RowHash> seen;  ///< DISTINCT
  /// Projected rows buffered for Cursor::Next, row-major (counted
  /// separately: a query without variables has zero-width rows).
  std::vector<rdf::TermId> out;
  size_t out_width = 0;
  size_t out_rows = 0;
  size_t out_next = 0;  ///< index of the next row to hand out
};

bool Cursor::Pipeline::Pull(size_t i, size_t capacity, Chunk* out) {
  out->Reset(width);
  Level& level = levels[i];
  if (i == 0) {
    if (level.iter == nullptr) {
      level.iter = source->NewScan(ScanPattern(level.scan, Row()));
      ++stats.index_scans;
    }
    rdf::ScanIterator& iter = *level.iter;
    while (iter.Valid() && out->rows < capacity) {
      if (cancel.Expired()) break;
      ++stats.intermediate_rows;
      level.scratch.assign(width, rdf::kAnyTerm);
      bool ok = BindRow(level.scan, iter.Value(), &level.scratch);
      iter.Next();
      if (ok) out->PushRow(level.scratch);
    }
    return out->rows > 0;
  }
  for (;;) {
    if (cancel.expired) return out->rows > 0;
    if (level.iter != nullptr) {
      rdf::ScanIterator& iter = *level.iter;
      while (iter.Valid() && out->rows < capacity) {
        if (cancel.Expired()) break;
        ++stats.intermediate_rows;
        level.scratch = level.outer;
        bool ok = BindRow(level.scan, iter.Value(), &level.scratch);
        iter.Next();
        if (ok) out->PushRow(level.scratch);
      }
      if (out->rows == capacity) return true;
      if (iter.Valid()) continue;  // stopped by the deadline
      level.iter.reset();
    }
    // Advance to the next outer row, pulling a fresh chunk from below
    // when the current one is spent. The level below is asked for no
    // more rows than this level was: at most one outer row per output
    // row is needed to fill the request.
    if (level.input_pos >= level.input.rows) {
      if (!Pull(i - 1, capacity, &level.input)) return out->rows > 0;
      level.input_pos = 0;
      level.outer_rows += level.input.rows;
      if (level.bloom_pos >= 0) MaybeBuildBloom(&level);
    }
    level.outer.resize(width);
    for (size_t c = 0; c < width; ++c) {
      level.outer[c] = level.input.cols[c][level.input_pos];
    }
    ++level.input_pos;
    if (!level.bloom.empty()) {
      ++stats.bloom_probes;
      if (level.BloomRejects(level.outer)) continue;  // skip the probe
      ++stats.bloom_hits;
    }
    level.iter = source->NewScan(ScanPattern(level.scan, level.outer));
    ++stats.index_scans;
  }
}

/// The Bloom semijoin prefilter: the join-key column of the level's
/// constant-bound inner scan, folded into a Bloom filter, so outer rows
/// whose key definitely has no inner match skip the index probe (and
/// its iterator) entirely. It is built once the level has received at
/// least as many outer rows as the inner side is estimated to hold:
/// the build scan then costs no more than the probes already made, and
/// a cursor that stops early (LIMIT, max_rows, abandonment) never pays
/// for a filter it would not use.
void Cursor::Pipeline::MaybeBuildBloom(Level* level) {
  if (!level->estimated) {
    level->estimated = true;
    level->inner_estimate = source->EstimateCount(level->bloom_inner);
    if (level->inner_estimate == 0 ||
        level->inner_estimate > kMaxBloomKeys) {
      level->bloom_pos = -1;  // nothing to filter, or too big to pay
      return;
    }
  }
  if (level->outer_rows < level->inner_estimate) return;
  const int pos = level->bloom_pos;
  level->bloom_pos = -1;  // decided: one build attempt per execution
  BloomFilterBuilder builder(kBloomBitsPerKey);
  size_t keys = 0;
  std::unique_ptr<rdf::ScanIterator> iter =
      source->NewScan(level->bloom_inner);
  ++stats.index_scans;
  for (; iter->Valid(); iter->Next()) {
    if (cancel.Expired()) return;
    ++stats.intermediate_rows;
    // The estimate lied: a partial filter would reject real matches.
    if (++keys > kMaxBloomKeys) return;
    const rdf::Triple& t = iter->Value();
    rdf::TermId key = pos == 0 ? t.s : pos == 1 ? t.p : t.o;
    builder.AddKey(Slice(reinterpret_cast<const char*>(&key), sizeof(key)));
  }
  level->bloom = builder.Finish();
}

bool Cursor::Pipeline::PullTop(size_t capacity, Chunk* out) {
  if (levels.empty()) {
    // Empty WHERE clause: exactly one all-wildcard row.
    out->Reset(width);
    if (once_done) return false;
    once_done = true;
    out->PushRow(Row(width, rdf::kAnyTerm));
    return true;
  }
  return Pull(levels.size() - 1, capacity, out);
}

bool Cursor::Pipeline::Fill(size_t capacity) {
  out.clear();
  out_rows = out_next = 0;
  const std::vector<int>& slots = plan.projection_slots;
  while (out_rows == 0) {
    if (!PullTop(capacity, &chunk) || cancel.expired) return false;
    ++stats.batches;
    for (size_t r = 0; r < chunk.rows; ++r) {
      const size_t base = out.size();
      for (int slot : slots) {
        out.push_back(chunk.cols[static_cast<size_t>(slot)][r]);
      }
      if (plan.distinct &&
          !seen.emplace(out.begin() + static_cast<ptrdiff_t>(base),
                        out.end()).second) {
        out.resize(base);
        continue;
      }
      ++out_rows;
    }
  }
  return true;
}

void Cursor::Pipeline::Aggregate() {
  GroupAggregator groups(plan.agg);
  while (PullTop(kMaxChunkRows, &chunk) && !cancel.expired) {
    ++stats.batches;
    groups.AccumulateColumns(chunk.cols, chunk.rows);
  }
  if (cancel.expired) {
    // A group missing late rows would be silently *wrong*, not just a
    // prefix, so an expired aggregate emits nothing.
    stats.deadline_exceeded = true;
    return;
  }
  stats.agg_groups += groups.num_groups();
  std::vector<Row> rows = std::move(groups).Finish(top_k);
  if (limit != 0 && rows.size() > limit) rows.resize(limit);
  if (max_rows != 0 && rows.size() > max_rows) {
    rows.resize(max_rows);
    stats.max_rows_hit = true;
  }
  out.clear();
  for (const Row& row : rows) out.insert(out.end(), row.begin(), row.end());
  out_rows = rows.size();
  out_next = 0;
}

bool Cursor::Pipeline::Refill() {
  if (done) return false;
  if (!started) {
    started = true;
    // An already-expired deadline ends the stream before the first
    // pull (deterministic for "give up immediately" requests);
    // otherwise the scan loops poll cooperatively.
    if (cancel.armed && std::chrono::steady_clock::now() >= cancel.deadline) {
      stats.deadline_exceeded = true;
      done = true;
      return false;
    }
    if (plan.agg.enabled) {
      // An aggregate's demand is its whole input: it pulls full
      // chunks and buffers every output row at once.
      Aggregate();
      done = true;
      return out_rows > 0;
    }
  }
  const size_t emitted = stats.rows_streamed;
  size_t allowed = std::numeric_limits<size_t>::max();
  if (limit != 0) allowed = limit - emitted;
  if (max_rows != 0) allowed = std::min(allowed, max_rows - emitted);
  if (allowed == 0) {
    done = true;
    // LIMIT reached: the result is complete. Row cap reached: the
    // result is truncated only if a further row really exists (one
    // that cannot be looked for in time counts as one).
    if (limit == 0 || emitted < limit) {
      stats.max_rows_hit = Fill(1) || cancel.expired;
      out_rows = 0;
    }
    return false;
  }
  const size_t capacity = std::min(next_capacity, allowed);
  next_capacity = std::min(next_capacity * 2, kMaxChunkRows);
  if (Fill(capacity)) return true;
  stats.deadline_exceeded = cancel.expired;
  done = true;
  return false;
}

// ------------------------------------------------------------ Cursor

Cursor::Cursor(PlanPtr plan,
               std::shared_ptr<const rdf::TripleSource> snapshot,
               const rdf::TripleSource* source,
               const ExecutionOptions& options, size_t limit, size_t top_k)
    : plan_(std::move(plan)), snapshot_(std::move(snapshot)) {
  pipeline_ = std::make_unique<Pipeline>(
      *plan_, snapshot_ != nullptr ? snapshot_.get() : source, options, limit,
      top_k);
}

Cursor::Cursor(Cursor&&) noexcept = default;
Cursor& Cursor::operator=(Cursor&&) noexcept = default;

Cursor::~Cursor() {
  if (pipeline_ == nullptr) return;
  const QueryStats& stats = pipeline_->stats;
  QueryMetrics& metrics = QueryMetrics::Get();
  metrics.rows_streamed.Increment(stats.rows_streamed);
  metrics.index_scans.Increment(stats.index_scans);
  metrics.agg_groups.Increment(stats.agg_groups);
  metrics.batches.Increment(stats.batches);
  metrics.bloom_probes.Increment(stats.bloom_probes);
  metrics.bloom_hits.Increment(stats.bloom_hits);
}

bool Cursor::Next(Row* row) {
  Pipeline& p = *pipeline_;
  if (p.out_next == p.out_rows && !p.Refill()) return false;
  auto first =
      p.out.begin() + static_cast<ptrdiff_t>(p.out_next * p.out_width);
  row->assign(first, first + static_cast<ptrdiff_t>(p.out_width));
  ++p.out_next;
  ++p.stats.rows_streamed;
  return true;
}

const std::vector<std::string>& Cursor::columns() const {
  return plan_->projection_names;
}

const QueryStats& Cursor::stats() const { return pipeline_->stats; }

Binding Cursor::ToBinding(const Row& row) const {
  const std::vector<std::string>& names = plan_->projection_names;
  Binding binding;
  for (size_t i = 0; i < names.size() && i < row.size(); ++i) {
    binding[names[i]] = row[i];
  }
  return binding;
}

// ------------------------------------------------------- QueryEngine

PlanPtr QueryEngine::GetPlan(const SelectQuery& query,
                             const ExecutionOptions& options,
                             bool* cache_hit) const {
  *cache_hit = false;
  QueryMetrics& metrics = QueryMetrics::Get();
  if (!options.use_plan_cache) {
    return CompilePlan(query, *source_, options.reorder_patterns);
  }
  std::string key = PlanCacheKey(query, options.reorder_patterns);
  if (PlanPtr plan = cache_->Lookup(key); plan != nullptr) {
    metrics.plan_cache_hits.Increment();
    *cache_hit = true;
    return plan;
  }
  metrics.plan_cache_misses.Increment();
  PlanPtr plan = CompilePlan(query, *source_, options.reorder_patterns);
  cache_->Insert(key, plan);
  return plan;
}

Cursor QueryEngine::Open(const SelectQuery& query,
                         const ExecutionOptions& options) const {
  QueryMetrics::Get().executions.Increment();
  bool cache_hit = false;
  PlanPtr plan = GetPlan(query, options, &cache_hit);
  size_t limit = options.pushdown_limit ? query.limit : 0;
  Cursor cursor(std::move(plan), source_->SnapshotSource(), source_, options,
                limit, query.agg.top_k);
  cursor.pipeline_->stats.plan_cache_hit = cache_hit;
  return cursor;
}

std::vector<Binding> QueryEngine::Execute(const SelectQuery& query,
                                          const ExecutionOptions& options,
                                          QueryStats* stats) const {
  QueryMetrics& metrics = QueryMetrics::Get();
  ScopedTimer timer(metrics.execute_ms);
  Cursor cursor = Open(query, options);
  std::vector<Binding> results;
  Row row;
  while (cursor.Next(&row)) results.push_back(cursor.ToBinding(row));
  if (!options.pushdown_limit && query.limit != 0 &&
      results.size() > query.limit) {
    results.resize(query.limit);
  }
  if (stats != nullptr) *stats = cursor.stats();
  metrics.rows.Increment(results.size());
  return results;
}

StatusOr<SelectQuery> ParseSparql(std::string_view text,
                                  const rdf::Dictionary& dict) {
  SelectQuery query;
  // Tokenize by whitespace but keep quoted literals intact; parens
  // become their own tokens (the aggregate syntax) except inside
  // quotes or <IRIs>, where they are ordinary characters.
  std::vector<std::string> tokens;
  {
    std::string current;
    bool in_quotes = false;
    bool in_iri = false;
    for (size_t i = 0; i < text.size(); ++i) {
      char c = text[i];
      if (c == '"' ) {
        in_quotes = !in_quotes;
        current += c;
        continue;
      }
      if (!in_quotes && c == '<') in_iri = true;
      if (!in_quotes && c == '>') in_iri = false;
      if (!in_quotes && !in_iri && (c == '(' || c == ')')) {
        if (!current.empty()) {
          tokens.push_back(current);
          current.clear();
        }
        tokens.push_back(std::string(1, c));
        continue;
      }
      if (!in_quotes && isspace(static_cast<unsigned char>(c))) {
        if (!current.empty()) {
          tokens.push_back(current);
          current.clear();
        }
        continue;
      }
      current += c;
    }
    if (!current.empty()) tokens.push_back(current);
  }
  size_t i = 0;
  auto expect = [&](const char* word) -> bool {
    if (i < tokens.size() && ToUpper(tokens[i]) == word) {
      ++i;
      return true;
    }
    return false;
  };
  if (!expect("SELECT")) return Status::InvalidArgument("expected SELECT");
  if (expect("DISTINCT")) query.distinct = true;
  // Projection list: ?vars and at most one (COUNT(...) AS ?name)
  // aggregate spec, in any interleaving.
  while (i < tokens.size()) {
    if (tokens[i][0] == '?') {
      query.projection.push_back(tokens[i].substr(1));
      ++i;
      continue;
    }
    if (tokens[i] != "(") break;
    if (query.agg.enabled()) {
      return Status::InvalidArgument("only one aggregate is supported");
    }
    ++i;  // '('
    if (!expect("COUNT")) {
      return Status::InvalidArgument("expected COUNT in aggregate");
    }
    if (i >= tokens.size() || tokens[i] != "(") {
      return Status::InvalidArgument("expected ( after COUNT");
    }
    ++i;
    query.agg.func = expect("DISTINCT") ? AggFunc::kCountDistinct
                                        : AggFunc::kCount;
    if (i < tokens.size() && tokens[i] == "*") {
      if (query.agg.func == AggFunc::kCountDistinct) {
        return Status::InvalidArgument("COUNT(DISTINCT *) is unsupported");
      }
      ++i;
    } else if (i < tokens.size() && tokens[i].size() > 1 &&
               tokens[i][0] == '?') {
      query.agg.var = tokens[i].substr(1);
      ++i;
    } else {
      return Status::InvalidArgument("expected ?var or * in COUNT");
    }
    if (i >= tokens.size() || tokens[i] != ")") {
      return Status::InvalidArgument("expected ) after COUNT argument");
    }
    ++i;
    if (!expect("AS")) {
      return Status::InvalidArgument("expected AS in aggregate");
    }
    if (i >= tokens.size() || tokens[i].size() < 2 || tokens[i][0] != '?') {
      return Status::InvalidArgument("expected ?name after AS");
    }
    query.agg.out_name = tokens[i].substr(1);
    ++i;
    if (i >= tokens.size() || tokens[i] != ")") {
      return Status::InvalidArgument("expected ) closing aggregate");
    }
    ++i;
  }
  if (i < tokens.size() && tokens[i] == "*") ++i;  // SELECT *
  if (query.agg.enabled() && query.distinct) {
    return Status::InvalidArgument("DISTINCT with an aggregate");
  }
  if (!expect("WHERE")) return Status::InvalidArgument("expected WHERE");
  if (i >= tokens.size() || tokens[i] != "{") {
    return Status::InvalidArgument("expected {");
  }
  ++i;
  std::vector<QueryTerm> terms;
  auto flush_pattern = [&]() -> Status {
    if (terms.empty()) return Status::OK();
    if (terms.size() != 3) {
      return Status::InvalidArgument("pattern must have 3 terms");
    }
    query.where.push_back({terms[0], terms[1], terms[2]});
    terms.clear();
    return Status::OK();
  };
  for (; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "}") {
      KB_RETURN_IF_ERROR(flush_pattern());
      if (query.where.empty()) {
        return Status::InvalidArgument("empty WHERE clause");
      }
      ++i;
      // Optional GROUP BY ?g ... (aggregate queries only).
      if (i < tokens.size() && ToUpper(tokens[i]) == "GROUP") {
        ++i;
        if (!expect("BY")) {
          return Status::InvalidArgument("expected BY after GROUP");
        }
        if (!query.agg.enabled()) {
          return Status::InvalidArgument("GROUP BY without an aggregate");
        }
        while (i < tokens.size() && tokens[i].size() > 1 &&
               tokens[i][0] == '?') {
          query.agg.group_by.push_back(tokens[i].substr(1));
          ++i;
        }
        if (query.agg.group_by.empty()) {
          return Status::InvalidArgument("empty GROUP BY");
        }
      }
      // Optional ORDER BY DESC(?agg) — the top-k form; only the
      // aggregate output may be the sort key, and a LIMIT must bound
      // the heap.
      bool ordered = false;
      if (i < tokens.size() && ToUpper(tokens[i]) == "ORDER") {
        ++i;
        if (!expect("BY")) {
          return Status::InvalidArgument("expected BY after ORDER");
        }
        if (!query.agg.enabled()) {
          return Status::InvalidArgument("ORDER BY without an aggregate");
        }
        if (!expect("DESC")) {
          return Status::InvalidArgument(
              "only ORDER BY DESC(?agg) is supported");
        }
        if (i >= tokens.size() || tokens[i] != "(") {
          return Status::InvalidArgument("expected ( after DESC");
        }
        ++i;
        if (i >= tokens.size() || tokens[i] != "?" + query.agg.out_name) {
          return Status::InvalidArgument(
              "ORDER BY DESC must sort on the aggregate output");
        }
        ++i;
        if (i >= tokens.size() || tokens[i] != ")") {
          return Status::InvalidArgument("expected ) after DESC(?var");
        }
        ++i;
        ordered = true;
      }
      // Optional trailing "LIMIT n".
      if (i < tokens.size() && ToUpper(tokens[i]) == "LIMIT") {
        ++i;
        long long n = 0;
        if (i >= tokens.size() || !ParseInt64(tokens[i], &n) || n < 0) {
          return Status::InvalidArgument("bad LIMIT");
        }
        query.limit = static_cast<size_t>(n);
        ++i;
      }
      if (ordered) {
        if (query.limit == 0) {
          return Status::InvalidArgument(
              "ORDER BY DESC(?agg) requires LIMIT (top-k)");
        }
        query.agg.top_k = query.limit;
        query.limit = 0;  // the bounded heap already emits exactly k
      }
      if (query.agg.enabled()) {
        // Grouped output variables must be exactly the projected ones
        // (order included), so the output columns are unambiguous.
        if (!query.projection.empty() &&
            query.projection != query.agg.group_by) {
          return Status::InvalidArgument(
              "projected variables must match GROUP BY");
        }
        // The output row is keyed by name; a collision would make the
        // count shadow its own group column.
        for (const std::string& g : query.agg.group_by) {
          if (g == query.agg.out_name) {
            return Status::InvalidArgument(
                "aggregate output name collides with a grouped variable");
          }
        }
      }
      if (i < tokens.size()) {
        return Status::InvalidArgument("trailing tokens after query");
      }
      return query;
    }
    if (token == ".") {
      KB_RETURN_IF_ERROR(flush_pattern());
      continue;
    }
    if (token[0] == '?') {
      if (token.size() < 2) {
        return Status::InvalidArgument("bare '?' variable");
      }
      terms.push_back(QueryTerm::Var(token.substr(1)));
      continue;
    }
    auto parsed = rdf::Term::Parse(token);
    if (!parsed.ok()) return parsed.status();
    // Unknown constants stay kInvalidTermId = unmatchable.
    terms.push_back(QueryTerm::Bound(dict.Lookup(*parsed)));
  }
  return Status::InvalidArgument("unterminated WHERE clause");
}

}  // namespace query
}  // namespace kb
