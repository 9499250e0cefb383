#include "analytics/class_stats.h"

#include <algorithm>

#include "analytics/chunks.h"
#include "rdf/term.h"
#include "util/metrics_registry.h"

namespace kb {
namespace analytics {
namespace {

struct ClassStatsMetrics {
  Counter& runs;
  Counter& entities;

  static ClassStatsMetrics& Get() {
    static ClassStatsMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new ClassStatsMetrics{r.counter("analytics.class_stats.runs"),
                                   r.counter("analytics.class_stats.entities")};
    }();
    return *m;
  }
};

constexpr uint32_t kNoClass = 0xffffffffu;

/// Every (s, o) of the triples matching (*, predicate, *), in scan
/// order.
std::vector<std::pair<rdf::TermId, rdf::TermId>> SubjectObjectPairs(
    const rdf::TripleSource& source, rdf::TermId predicate) {
  std::vector<std::pair<rdf::TermId, rdf::TermId>> out;
  rdf::TriplePattern pattern;
  pattern.p = predicate;
  for (auto it = source.NewScan(pattern); it->Valid(); it->Next()) {
    out.emplace_back(it->Value().s, it->Value().o);
  }
  return out;
}

}  // namespace

ClassStatsResult ComputeClassStats(const rdf::TripleSource& source,
                                   const ClassStatsOptions& options,
                                   ThreadPool* pool) {
  ClassStatsResult result;
  ClassStatsMetrics::Get().runs.Increment();
  if (options.type_predicate == 0 ||
      options.type_predicate == rdf::kAnyTerm) {
    return result;
  }
  const bool rollup = options.rollup && options.subclass_predicate != 0 &&
                      options.subclass_predicate != rdf::kAnyTerm;
  // (child, parent) subclass edges and (entity, class) type pairs.
  std::vector<std::pair<rdf::TermId, rdf::TermId>> parents;
  if (rollup) parents = SubjectObjectPairs(source, options.subclass_predicate);
  const std::vector<std::pair<rdf::TermId, rdf::TermId>> typed =
      SubjectObjectPairs(source, options.type_predicate);

  // Dense class numbers in ascending id order, through a flat
  // id-indexed vector: every direct type and every class on either end
  // of a subclass edge.
  rdf::TermId max_class = 0, max_entity = 0;
  for (const auto& [entity, cls] : typed) {
    max_entity = std::max(max_entity, entity);
    max_class = std::max(max_class, cls);
  }
  for (const auto& [child, parent] : parents) {
    max_class = std::max({max_class, child, parent});
  }
  std::vector<uint32_t> class_index(max_class + size_t{1}, kNoClass);
  for (const auto& [entity, cls] : typed) class_index[cls] = 0;
  for (const auto& [child, parent] : parents) {
    class_index[child] = class_index[parent] = 0;
  }
  std::vector<rdf::TermId> classes;  // dense -> TermId
  for (size_t id = 0; id < class_index.size(); ++id) {
    if (class_index[id] == kNoClass) continue;
    class_index[id] = static_cast<uint32_t>(classes.size());
    classes.push_back(static_cast<rdf::TermId>(id));
  }
  const size_t num_classes = classes.size();

  // Reflexive-transitive ancestor closure of every dense class: a
  // breadth-first walk up the parent lists that marks each class once
  // per walk, so cycles terminate and every ancestor appears once.
  // Without rollup there are no parent edges and each closure is the
  // class alone. Taxonomies are tiny next to the entity population, so
  // this runs sequentially.
  std::vector<std::vector<uint32_t>> parents_of(num_classes);
  for (const auto& [child, parent] : parents) {
    parents_of[class_index[child]].push_back(class_index[parent]);
  }
  std::vector<std::vector<uint32_t>> closure(num_classes);
  std::vector<uint32_t> walked_from(num_classes, kNoClass);
  for (uint32_t c = 0; c < num_classes; ++c) {
    closure[c].push_back(c);
    walked_from[c] = c;
    for (size_t next = 0; next < closure[c].size(); ++next) {
      for (uint32_t parent : parents_of[closure[c][next]]) {
        if (walked_from[parent] == c) continue;
        walked_from[parent] = c;
        closure[c].push_back(parent);
      }
    }
  }

  // Type pairs grouped by entity with a counting sort over a flat
  // id-indexed vector: entity e's dense classes end up in
  // entity_classes[entity_start[e], entity_start[e + 1]).
  std::vector<uint32_t> entity_start(max_entity + size_t{2}, 0);
  for (const auto& [entity, cls] : typed) ++entity_start[entity];
  for (size_t e = 1; e < entity_start.size(); ++e) {
    entity_start[e] += entity_start[e - 1];
  }
  // Filling back to front moves each entity's end down to its start.
  std::vector<uint32_t> entity_classes(typed.size());
  for (auto it = typed.rbegin(); it != typed.rend(); ++it) {
    entity_classes[--entity_start[it->first]] = class_index[it->second];
  }

  // Per-shard flat counts over entity id ranges, summed at the end.
  // Each entity's classes expand to the union of their closures exactly
  // once — a per-class stamp of the last entity counted dedupes it —
  // so an entity typed under two siblings counts once for the shared
  // superclass.
  const size_t num_ids = max_entity + size_t{1};
  std::vector<std::vector<uint64_t>> shard_counts(NumChunks(pool, num_ids));
  std::vector<size_t> shard_entities(shard_counts.size(), 0);
  ForChunks(pool, num_ids, [&](size_t begin, size_t end, size_t shard) {
    std::vector<uint64_t>& counts = shard_counts[shard];
    counts.assign(num_classes, 0);
    std::vector<uint32_t> counted_for(num_classes, 0);  // entity stamp
    size_t entities = 0;
    for (size_t e = std::max<size_t>(begin, 1); e < end; ++e) {
      if (entity_start[e] == entity_start[e + 1]) continue;
      ++entities;
      for (uint32_t i = entity_start[e]; i < entity_start[e + 1]; ++i) {
        for (uint32_t ancestor : closure[entity_classes[i]]) {
          if (counted_for[ancestor] == e) continue;
          counted_for[ancestor] = static_cast<uint32_t>(e);
          ++counts[ancestor];
        }
      }
    }
    shard_entities[shard] = entities;
  });

  std::vector<uint64_t> counts(num_classes, 0);
  for (const std::vector<uint64_t>& shard : shard_counts) {
    for (size_t c = 0; c < shard.size(); ++c) counts[c] += shard[c];
  }
  for (size_t entities : shard_entities) result.num_entities += entities;
  ClassStatsMetrics::Get().entities.Increment(result.num_entities);
  for (size_t c = 0; c < num_classes; ++c) {
    if (counts[c] > 0) result.counts.emplace_back(classes[c], counts[c]);
  }
  std::sort(result.counts.begin(), result.counts.end(),
            [](const std::pair<rdf::TermId, uint64_t>& a,
               const std::pair<rdf::TermId, uint64_t>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  result.num_classes = result.counts.size();
  return result;
}

size_t InsertClassStatsFacts(const ClassStatsResult& result,
                             const std::string& property,
                             core::KnowledgeBase* kb) {
  rdf::TermId p = kb->PropertyTerm(property);
  size_t inserted = 0;
  for (const auto& [cls, count] : result.counts) {
    rdf::TermId o = kb->store().dict().Intern(
        rdf::Term::IntLiteral(static_cast<int64_t>(count)));
    core::FactMeta meta;
    kb->AddTripleWithMeta(rdf::Triple{cls, p, o}, &meta);
    ++inserted;
  }
  return inserted;
}

}  // namespace analytics
}  // namespace kb
