#ifndef KBFORGE_ANALYTICS_PAGERANK_H_
#define KBFORGE_ANALYTICS_PAGERANK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/knowledge_base.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "util/thread_pool.h"

namespace kb {
namespace analytics {

/// Offline entity-importance analytics (the tutorial's §4 "big data
/// analytics over the KB" workload): PageRank power iteration over the
/// id-native entity link graph of a TripleStore. Every non-excluded
/// triple contributes an s -> o edge. The graph is built on dense ids
/// straight off the store's SPO order — the base snapshot's packed run
/// and the delta snapshot, read by index range — so the job never
/// materializes a term, and ranks are keyed by the same TermIds the
/// serving tier renders.
struct PageRankOptions {
  double damping = 0.85;
  /// Hard iteration cap.
  int max_iterations = 20;
  /// Stop once the L1 rank delta of an iteration falls below this;
  /// 0 disables early convergence.
  double tolerance = 1e-9;
  /// Predicates whose triples contribute no edges (schema plumbing:
  /// rdf:type, rdfs:subClassOf, rdfs:label, ...).
  std::vector<rdf::TermId> exclude_predicates;
  /// When set, only triples whose object is an IRI contribute edges
  /// (literal-valued facts like years would otherwise become sink
  /// nodes); tested by id through Dictionary::kind. Must stay valid
  /// and quiesced for the duration.
  const rdf::Dictionary* iri_objects_only = nullptr;
};

struct PageRankResult {
  /// Graph nodes (every TermId seen as subject or object of a kept
  /// edge) in ascending id order; ranks[i] is the score of nodes[i].
  /// Ranks sum to ~1.
  std::vector<rdf::TermId> nodes;
  std::vector<double> ranks;
  int iterations = 0;      ///< power iterations actually run
  double last_delta = 0;   ///< L1 delta of the final iteration
  size_t num_edges = 0;
  double build_ms = 0;     ///< wall time of the graph build
  double iterate_ms = 0;   ///< wall time of the power iterations

  /// The k highest-ranked nodes, score-descending (ties: smaller id
  /// first, so results are deterministic).
  std::vector<std::pair<rdf::TermId, double>> TopK(size_t k) const;
};

/// Runs PageRank over `store`. The graph build's scan and each power
/// iteration are sharded across `pool` (frontier-synchronized: all of
/// iteration i completes before i+1 starts); pass nullptr to run
/// single-threaded. Nodes, edges and every node's in-edge order are
/// the same for every thread count.
PageRankResult ComputePageRank(const rdf::TripleStore& store,
                               const PageRankOptions& options,
                               ThreadPool* pool);

/// Writes the top_k ranked entities back into the KB as
///   <entity> kbp:<property> "score"^^xsd:double
/// facts, making the analytics output queryable like any other fact.
/// Returns the number of facts asserted. Caller must have writers
/// quiesced (the helper interns literal terms through the raw
/// dictionary handle).
size_t InsertPageRankFacts(const PageRankResult& result, size_t top_k,
                           const std::string& property,
                           core::KnowledgeBase* kb);

}  // namespace analytics
}  // namespace kb

#endif  // KBFORGE_ANALYTICS_PAGERANK_H_
