// Inputs of the KBForge benchmark: the gold world sized for a served
// volume of about 4×10⁵ triples, its bulk load into a KnowledgeBase,
// and the seeded request generators of the three workloads.
//
// Every query constant is drawn from a catalog built from the gold
// world, restricted to entities whose answer is non-empty, so every
// request the generators emit is meant to do work and none should
// fail.

#ifndef KBFORGE_PERFBENCH_TRAFFIC_H_
#define KBFORGE_PERFBENCH_TRAFFIC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/knowledge_base.h"
#include "corpus/world.h"
#include "loadgen/key_chooser.h"
#include "server/wire_fact.h"
#include "util/random.h"

namespace perfbench {

/// Request classes; each has its own latency metric.
enum class OpKind : uint8_t {
  kCard = 0,   ///< entity_card on a person
  kPoint,      ///< bound query: employees of a company, or a city join
  kScan,       ///< row-bearing query, 10²–10³ rows
  kAgg,        ///< join-heavy top-k GROUP BY, few rows
  kAnalytics,  ///< pagerank or class_stats job
  kWrite,      ///< insert_facts batch for one new entity
  kNumKinds,
};
const char* OpName(OpKind kind);
inline bool IsQuery(OpKind k) {
  return k == OpKind::kPoint || k == OpKind::kScan || k == OpKind::kAgg;
}

enum class Workload { kLookup, kReport, kIngest };
const char* WorkloadName(Workload w);
bool ParseWorkload(const std::string& name, Workload* out);
/// The request classes a workload's timed phase sends.
std::set<OpKind> MixKinds(Workload workload);

/// World size knobs: every entity kind scales with the person count,
/// so bound lookups stay point lookups as the KB grows.
kb::corpus::WorldOptions ScaledWorldOptions(size_t persons, uint64_t seed);

/// Asserts the gold world through the public Assert* API, as the
/// harvester's assembly step does: backbone taxonomy, one rdf:type per
/// occupation or entity kind, every gold fact, an English label each.
void BulkAssert(const kb::corpus::World& world, kb::core::KnowledgeBase* kb);

/// Query constants with non-empty answers, from the gold world.
struct Catalog {
  std::vector<std::string> persons;       ///< rank 0 = Zipf-hottest
  std::vector<std::string> companies;     ///< ≥ 1 employee, Zipf order
  std::vector<std::string> hq_cities;     ///< ≥ 1 headquarters, Zipf order
  std::vector<std::string> countries;     ///< ≥ 1 citizen
  std::vector<std::string> agg_countries; ///< ≥ 1 alumnus born there
  std::vector<std::string> cities;        ///< write targets
  std::vector<std::string> universities;  ///< write targets
};
Catalog BuildCatalog(const kb::corpus::World& world, uint64_t seed);

struct Request {
  OpKind kind = OpKind::kCard;
  std::string text;  ///< SPARQL, entity canonical, or analytics job
  bool no_cache = false;
  /// Card of an entity written during this run (index of its write).
  int64_t fresh_write = -1;
};

/// The facts of write batch `index`: one new person with
/// kFactsPerWrite facts.
constexpr size_t kFactsPerWrite = 5;
std::vector<kb::server::WireFact> WriteBatch(const Catalog& catalog,
                                             uint64_t seed, uint64_t index);
std::string FreshEntity(uint64_t seed, uint64_t index);

/// One client's seeded request stream. Shares are exact over every
/// deck of requests (the deck is reshuffled each round), so a run's
/// mix does not drift with how many requests it completes.
class TrafficGen {
 public:
  /// `seed` is the run's seed, `stream` picks one of its independent
  /// request streams. `acked_writes` (may be null) counts acknowledged
  /// write batches; when set, a third of the cards read the newest.
  TrafficGen(const Catalog* catalog, Workload workload, uint64_t seed,
             uint64_t stream, const std::atomic<uint64_t>* acked_writes);

  /// The next request of this workload's mix.
  Request Next();
  /// A request of one class, drawn like this workload draws it.
  Request Make(OpKind kind);

 private:
  const Catalog* catalog_;
  Workload workload_;
  uint64_t seed_;
  kb::Rng rng_;
  std::vector<OpKind> deck_;
  size_t deck_pos_ = 0;
  uint64_t analytics_count_ = 0;
  uint64_t card_count_ = 0;
  uint64_t point_count_ = 0;
  kb::loadgen::ZipfianChooser person_zipf_;
  kb::loadgen::ZipfianChooser company_zipf_;
  kb::loadgen::ZipfianChooser city_zipf_;
  std::unique_ptr<kb::loadgen::LatestChooser> latest_;
  const std::atomic<uint64_t>* acked_writes_;
};

}  // namespace perfbench

#endif  // KBFORGE_PERFBENCH_TRAFFIC_H_
