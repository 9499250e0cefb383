#ifndef KBFORGE_ANALYTICS_CLASS_STATS_H_
#define KBFORGE_ANALYTICS_CLASS_STATS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/knowledge_base.h"
#include "rdf/triple_source.h"
#include "util/thread_pool.h"

namespace kb {
namespace analytics {

/// Class-distribution rollup over taxonomy subsumption: for every
/// class, the number of distinct entities that belong to it directly
/// OR through any chain of rdfs:subClassOf edges. Computed id-native
/// from two indexed scans of a TripleSource (type triples and
/// subclass triples), so it runs against a store snapshot like any
/// other analytics job. Classes and entities are renumbered through
/// flat id-indexed vectors, and ancestor closures and counts are flat
/// per-class arrays over the dense class numbers.
struct ClassStatsOptions {
  /// TermId of the rdf:type predicate in the source's dictionary.
  rdf::TermId type_predicate = 0;
  /// TermId of rdfs:subClassOf; kAnyTerm/0 or rollup=false disables
  /// subsumption expansion (direct-type counts only).
  rdf::TermId subclass_predicate = 0;
  /// Expand each entity's direct classes to their full ancestor
  /// closure before counting (exact distinct counts per class).
  bool rollup = true;
};

struct ClassStatsResult {
  /// (class TermId, #distinct entities), count-descending (ties:
  /// smaller id first).
  std::vector<std::pair<rdf::TermId, uint64_t>> counts;
  size_t num_entities = 0;  ///< distinct typed entities seen
  size_t num_classes = 0;   ///< classes with a nonzero count
};

/// Runs the rollup over `source`; entity id ranges are sharded across
/// `pool` with per-shard partial counts summed at the end (nullptr =
/// single-threaded). A subclass cycle puts every class on it in each
/// other's closure.
ClassStatsResult ComputeClassStats(const rdf::TripleSource& source,
                                   const ClassStatsOptions& options,
                                   ThreadPool* pool);

/// Writes the class counts back into the KB as
///   <class> kbp:<property> "count"^^xsd:integer
/// facts. Returns the number of facts asserted. Caller must have
/// writers quiesced (interns literal terms through the raw dictionary
/// handle).
size_t InsertClassStatsFacts(const ClassStatsResult& result,
                             const std::string& property,
                             core::KnowledgeBase* kb);

}  // namespace analytics
}  // namespace kb

#endif  // KBFORGE_ANALYTICS_CLASS_STATS_H_
