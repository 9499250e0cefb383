#ifndef KBFORGE_QUERY_ENGINE_H_
#define KBFORGE_QUERY_ENGINE_H_

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/plan.h"
#include "rdf/triple_store.h"
#include "util/statusor.h"

namespace kb {
namespace query {

/// A result row: variable name -> term id. (The executor works on
/// slot-indexed id chunks and converts at the Execute boundary.)
using Binding = std::map<std::string, rdf::TermId>;

/// A slot-indexed flat row: row[slot] holds the value of
/// plan->var_names[slot]; Cursor::Next hands out projected rows.
using Row = std::vector<rdf::TermId>;

/// Per-execution serving limits: a cooperative deadline checked inside
/// the scan loops (so a join that grinds through millions of
/// intermediate triples without yielding a row still stops), and a hard
/// cap on produced rows. Both are enforced by the Cursor; when either
/// trips, the cursor ends its stream and flags QueryStats, so callers
/// can distinguish "exhausted" from "cut off" (and e.g. refuse to serve
/// or cache a truncated result).
struct ExecOptions {
  /// Absolute give-up point; time_point{} (the epoch) = no deadline.
  std::chrono::steady_clock::time_point deadline{};
  /// Stop after this many produced rows; 0 = unlimited. Unlike LIMIT
  /// this is a server-side protection, not part of the query (it does
  /// not join the plan-cache key and trips `max_rows_hit`).
  size_t max_rows = 0;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
};

/// Executor knobs (E10 ablations).
struct ExecutionOptions {
  bool reorder_patterns = true;  ///< greedy selectivity-based join order
  bool use_plan_cache = true;    ///< false = replan every execution
  /// false = drain the full result, then truncate (LIMIT ablation: no
  /// early termination).
  bool pushdown_limit = true;
  /// Serving limits (deadline + row cap).
  ExecOptions exec;
};

/// Execution counters.
struct QueryStats {
  /// Triples visited across all levels, Bloom filter builds included.
  uint64_t intermediate_rows = 0;
  uint64_t index_scans = 0;  ///< index scans opened, Bloom builds included
  uint64_t rows_streamed = 0;  ///< rows the cursor handed out
  /// Groups the hash aggregator materialized (aggregate queries only).
  uint64_t agg_groups = 0;
  /// Id-column chunks the pipeline delivered to its consumer.
  uint64_t batches = 0;
  /// Bloom-semijoin prefilter probes / passes. A probe that misses
  /// skips the index lookup for that outer row.
  uint64_t bloom_probes = 0;
  uint64_t bloom_hits = 0;
  bool plan_cache_hit = false;
  /// The ExecOptions deadline expired before the stream was exhausted:
  /// whatever rows were produced are a prefix, not the full result.
  bool deadline_exceeded = false;
  /// The ExecOptions row cap cut off at least one further row.
  bool max_rows_hit = false;
};

/// A pull cursor over one executing query. Underneath, a left-deep
/// pipeline moves column-major id chunks: the leaf index scan, one
/// index nested-loop join level per further pattern (with a Bloom
/// semijoin prefilter where it pays), then projection + DISTINCT, or a
/// hash aggregate. Chunk capacity follows demand: the first chunk holds
/// one row, each later pull doubles it up to a fixed maximum, and no
/// chunk exceeds what LIMIT and the row cap still allow — so an
/// abandoned or LIMITed cursor does little more work than the rows it
/// handed out. Movable, single-consumer; holds the source snapshot
/// alive.
class Cursor {
 public:
  Cursor(Cursor&&) noexcept;
  Cursor& operator=(Cursor&&) noexcept;
  ~Cursor();

  /// Pulls the next projected row; false at end of stream.
  bool Next(Row* row);

  /// Output column names, in row order.
  const std::vector<std::string>& columns() const;

  /// Counters so far (final once Next returned false).
  const QueryStats& stats() const;

  /// Converts a projected row to the map-based Binding.
  Binding ToBinding(const Row& row) const;

 private:
  friend class QueryEngine;
  struct Pipeline;  ///< defined in engine.cc

  Cursor(PlanPtr plan, std::shared_ptr<const rdf::TripleSource> snapshot,
         const rdf::TripleSource* source, const ExecutionOptions& options,
         size_t limit, size_t top_k);

  PlanPtr plan_;
  std::shared_ptr<const rdf::TripleSource> snapshot_;  ///< may be null
  std::unique_ptr<Pipeline> pipeline_;
};

/// Compiles SelectQuerys into chunked id pipelines over any
/// TripleSource (in-memory TripleStore, one of its snapshots, or the
/// LSM-backed storage::StoredTripleSource) with index nested-loop
/// joins, greedy selectivity-based join ordering and an LRU plan
/// cache.
class QueryEngine {
 public:
  /// `cache` (optional) shares compiled plans across engines over the
  /// same dictionary; by default each engine keeps a private cache.
  /// Both pointers must outlive the engine.
  explicit QueryEngine(const rdf::TripleSource* source,
                       PlanCache* cache = nullptr)
      : source_(source), cache_(cache != nullptr ? cache : &own_cache_) {}

  /// Runs the query, returning all result rows (projected): drains
  /// the cursor Open returns.
  std::vector<Binding> Execute(const SelectQuery& query,
                               const ExecutionOptions& options = {},
                               QueryStats* stats = nullptr) const;

  /// Opens a streaming cursor; rows are computed as they are pulled.
  Cursor Open(const SelectQuery& query,
              const ExecutionOptions& options = {}) const;

 private:
  PlanPtr GetPlan(const SelectQuery& query, const ExecutionOptions& options,
                  bool* cache_hit) const;

  const rdf::TripleSource* source_;
  PlanCache* cache_;
  mutable PlanCache own_cache_;
};

/// Parses a minimal SPARQL subset:
///   SELECT ?x ?y WHERE { ?x <iri> ?y . <iri> ?p "literal" . }
/// Terms are N-Triples syntax or ?variables. Unknown constant terms
/// yield an empty-result query (they cannot match).
///
/// Aggregates (the analytics surface):
///   SELECT ?g (COUNT(?x) AS ?n) WHERE { ... } GROUP BY ?g
///     [ORDER BY DESC(?n)] [LIMIT k]
/// COUNT(*), COUNT(?x) and COUNT(DISTINCT ?x) are supported; with
/// ORDER BY DESC(agg) + LIMIT the query becomes a top-k GROUP BY
/// answered with a bounded heap (AggSpec::top_k) instead of LIMIT.
StatusOr<SelectQuery> ParseSparql(std::string_view text,
                                  const rdf::Dictionary& dict);

}  // namespace query
}  // namespace kb

#endif  // KBFORGE_QUERY_ENGINE_H_
