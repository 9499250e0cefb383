#include "analytics/pagerank.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analytics/chunks.h"
#include "rdf/namespaces.h"
#include "util/metrics_registry.h"

namespace kb {
namespace analytics {
namespace {

struct PageRankMetrics {
  Counter& runs;
  Counter& iterations;
  Counter& edges;

  static PageRankMetrics& Get() {
    static PageRankMetrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new PageRankMetrics{r.counter("analytics.pagerank.runs"),
                                 r.counter("analytics.pagerank.iterations"),
                                 r.counter("analytics.pagerank.edges")};
    }();
    return *m;
  }
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::vector<std::pair<rdf::TermId, double>> PageRankResult::TopK(
    size_t k) const {
  std::vector<std::pair<rdf::TermId, double>> out;
  out.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    out.emplace_back(nodes[i], ranks[i]);
  }
  auto better = [](const std::pair<rdf::TermId, double>& a,
                   const std::pair<rdf::TermId, double>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (k < out.size()) {
    std::partial_sort(out.begin(), out.begin() + static_cast<long>(k),
                      out.end(), better);
    out.resize(k);
  } else {
    std::sort(out.begin(), out.end(), better);
  }
  return out;
}

PageRankResult ComputePageRank(const rdf::TripleStore& store,
                               const PageRankOptions& options,
                               ThreadPool* pool) {
  PageRankResult result;
  PageRankMetrics::Get().runs.Increment();
  const auto build_start = std::chrono::steady_clock::now();

  // Positions [0, base_n) of the store's SPO order index the base's
  // packed run, the rest the delta snapshot (disjoint from the base).
  // The snapshot is taken before the dictionary is read, so every id
  // in it is below the dictionary's size.
  const rdf::FrameStore* base = store.base().get();
  const std::shared_ptr<const rdf::StoreSnapshot> delta = store.Snapshot();
  const std::vector<rdf::Triple>& delta_spo = delta->spo();
  const size_t base_n = base != nullptr ? base->size() : 0;
  const size_t positions = base_n + delta_spo.size();

  // The IRI test as a flat id-indexed table, filled through the
  // dictionary's kind-by-id accessor: one pass over the ids instead of
  // a term-record lookup per triple.
  const rdf::Dictionary* iri_dict = options.iri_objects_only;
  std::vector<uint8_t> is_iri(iri_dict != nullptr ? iri_dict->size() + 1 : 0);
  ForChunks(pool, is_iri.size(), [&](size_t begin, size_t end, size_t) {
    for (size_t id = std::max<size_t>(begin, 1); id < end; ++id) {
      is_iri[id] = iri_dict->kind(static_cast<rdf::TermId>(id)) ==
                   rdf::TermKind::kIri;
    }
  });
  auto iri_object = [&](rdf::TermId o) {
    return o < is_iri.size() ? is_iri[o] != 0
                             : iri_dict->kind(o) == rdf::TermKind::kIri;
  };

  // --- Graph build, pass 1: filter the SPO positions by chunk. ---
  // Each chunk keeps its edges as raw ids in position order, so the
  // chunks concatenated in order are one edge order whatever the
  // thread count.
  std::vector<rdf::TermId> excluded = options.exclude_predicates;
  std::sort(excluded.begin(), excluded.end());
  using Edge = std::pair<rdf::TermId, rdf::TermId>;  // (src, dst)
  std::vector<std::vector<Edge>> chunk_edges(NumChunks(pool, positions));
  std::vector<rdf::TermId> chunk_max_id(chunk_edges.size(), 0);
  ForChunks(pool, positions, [&](size_t begin, size_t end, size_t c) {
    std::vector<Edge>& edges = chunk_edges[c];
    edges.reserve(end - begin);
    rdf::TermId max_id = 0;
    auto visit = [&](const rdf::Triple& t) {
      if (std::binary_search(excluded.begin(), excluded.end(), t.p)) return;
      if (iri_dict != nullptr && !iri_object(t.o)) return;
      edges.emplace_back(t.s, t.o);
      max_id = std::max({max_id, t.s, t.o});
    };
    for (size_t i = begin; i < std::min(end, base_n); ++i) {
      visit(base->TripleAt(rdf::ScanOrder::kSpo, i));
    }
    for (size_t i = std::max(begin, base_n); i < end; ++i) {
      visit(delta_spo[i - base_n]);
    }
    chunk_max_id[c] = max_id;
  });

  // Pass 2: out- and in-degrees per raw id in flat id-indexed vectors;
  // nodes are the ids with either, numbered in ascending id order.
  const size_t num_ids =
      *std::max_element(chunk_max_id.begin(), chunk_max_id.end()) + size_t{1};
  std::vector<uint32_t> out_by_id(num_ids, 0), in_by_id(num_ids, 0);
  for (const std::vector<Edge>& edges : chunk_edges) {
    result.num_edges += edges.size();
    for (const auto& [src, dst] : edges) {
      ++out_by_id[src];
      ++in_by_id[dst];
    }
  }
  PageRankMetrics::Get().edges.Increment(result.num_edges);
  std::vector<uint32_t> dense(num_ids, 0);  // TermId -> node
  std::vector<uint32_t> out_degree;
  std::vector<uint32_t> in_offset{0};  // in-edge CSR, dst-major
  for (size_t id = 0; id < num_ids; ++id) {
    if (out_by_id[id] == 0 && in_by_id[id] == 0) continue;
    dense[id] = static_cast<uint32_t>(result.nodes.size());
    result.nodes.push_back(static_cast<rdf::TermId>(id));
    out_degree.push_back(out_by_id[id]);
    in_offset.push_back(in_offset.back() + in_by_id[id]);
  }
  const size_t n = result.nodes.size();
  result.ranks.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  if (n == 0) {
    result.build_ms = MsSince(build_start);
    return result;
  }

  // Pass 3: each node's in-edge sources, in global edge order, so its
  // next rank is an independent pull — the unit the pool shards.
  std::vector<uint32_t> in_src(result.num_edges);
  {
    std::vector<uint32_t> cursor(in_offset.begin(), in_offset.end() - 1);
    for (std::vector<Edge>& edges : chunk_edges) {
      for (const auto& [src, dst] : edges) {
        in_src[cursor[dense[dst]]++] = dense[src];
      }
      std::vector<Edge>().swap(edges);
    }
  }
  result.build_ms = MsSince(build_start);
  const auto iterate_start = std::chrono::steady_clock::now();

  // --- Frontier-synchronized power iteration. ---
  // contribution[i] is node i's rank share per out-edge, taken once per
  // node, not once per edge. Dangling nodes (no out-edges) leak rank;
  // their mass is redistributed uniformly so ranks keep summing to 1.
  // One pass per iteration pulls the next ranks and already takes the
  // next iteration's contributions and dangling mass.
  const double d = options.damping;
  const double base_rank = (1.0 - d) / static_cast<double>(n);
  std::vector<double> contribution(n, 0.0), next_contribution(n, 0.0);
  std::vector<double> next(n, 0.0);
  double dangling = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (out_degree[i] == 0) {
      dangling += result.ranks[i];
    } else {
      contribution[i] = result.ranks[i] / out_degree[i];
    }
  }
  struct Partial {
    double delta = 0.0;     // L1 rank change
    double dangling = 0.0;  // next ranks of dangling nodes
  };
  std::vector<Partial> partial(NumChunks(pool, n));
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    const double redistribute = d * dangling / static_cast<double>(n);
    std::fill(partial.begin(), partial.end(), Partial());
    ForChunks(pool, n, [&](size_t begin, size_t end, size_t c) {
      Partial sum;
      for (size_t i = begin; i < end; ++i) {
        double in_sum = 0.0;
        for (uint32_t e = in_offset[i]; e < in_offset[i + 1]; ++e) {
          in_sum += contribution[in_src[e]];
        }
        next[i] = base_rank + redistribute + d * in_sum;
        sum.delta += std::fabs(next[i] - result.ranks[i]);
        if (out_degree[i] == 0) {
          next_contribution[i] = 0.0;
          sum.dangling += next[i];
        } else {
          next_contribution[i] = next[i] / out_degree[i];
        }
      }
      partial[c] = sum;
    });
    result.ranks.swap(next);
    contribution.swap(next_contribution);
    result.last_delta = 0.0;
    dangling = 0.0;
    for (const Partial& p : partial) {
      result.last_delta += p.delta;
      dangling += p.dangling;
    }
    result.iterations = iter + 1;
    PageRankMetrics::Get().iterations.Increment();
    if (options.tolerance > 0 && result.last_delta < options.tolerance) {
      break;
    }
  }
  result.iterate_ms = MsSince(iterate_start);
  return result;
}

size_t InsertPageRankFacts(const PageRankResult& result, size_t top_k,
                           const std::string& property,
                           core::KnowledgeBase* kb) {
  static constexpr std::string_view kXsdDouble =
      "http://www.w3.org/2001/XMLSchema#double";
  rdf::TermId p = kb->PropertyTerm(property);
  size_t inserted = 0;
  for (const auto& [node, score] : result.TopK(top_k)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", score);
    rdf::TermId o = kb->store().dict().Intern(
        rdf::Term::TypedLiteral(buf, std::string(kXsdDouble)));
    core::FactMeta meta;
    meta.extractor = 0;
    kb->AddTripleWithMeta(rdf::Triple{node, p, o}, &meta);
    ++inserted;
  }
  return inserted;
}

}  // namespace analytics
}  // namespace kb
