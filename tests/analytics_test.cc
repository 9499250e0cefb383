#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>

#include "analytics/class_stats.h"
#include "analytics/pagerank.h"
#include "core/kb_snapshot.h"
#include "core/knowledge_base.h"
#include "rdf/namespaces.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "util/thread_pool.h"

namespace kb {
namespace analytics {
namespace {

using rdf::Term;
using rdf::TermId;

double RankOf(const PageRankResult& result, TermId node) {
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    if (result.nodes[i] == node) return result.ranks[i];
  }
  return -1;
}

uint64_t CountOf(const ClassStatsResult& result, TermId cls) {
  for (const auto& [id, count] : result.counts) {
    if (id == cls) return count;
  }
  return 0;
}

class PageRankFixture : public ::testing::Test {
 protected:
  TermId Iri(const std::string& s) {
    return store_.dict().Intern(Term::Iri(s));
  }

  void SetUp() override {
    link_ = Iri("link");
    a_ = Iri("a");
    b_ = Iri("b");
    c_ = Iri("c");
    d_ = Iri("d");
  }

  rdf::TripleStore store_;
  TermId link_, a_, b_, c_, d_;
};

TEST_F(PageRankFixture, RanksSumToOneAndFavorLinkSinks) {
  // a, b, c all link to d; d links back to a.
  store_.Add({a_, link_, d_});
  store_.Add({b_, link_, d_});
  store_.Add({c_, link_, d_});
  store_.Add({d_, link_, a_});
  PageRankOptions options;
  PageRankResult result = ComputePageRank(store_, options, nullptr);
  EXPECT_EQ(result.nodes.size(), 4u);
  EXPECT_EQ(result.num_edges, 4u);
  double sum = 0;
  for (double r : result.ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // d collects three in-links, a one (from the heaviest node), b and c
  // none: rank(d) > rank(a) > rank(b) == rank(c).
  EXPECT_GT(RankOf(result, d_), RankOf(result, a_));
  EXPECT_GT(RankOf(result, a_), RankOf(result, b_));
  EXPECT_DOUBLE_EQ(RankOf(result, b_), RankOf(result, c_));

  auto top = result.TopK(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, d_);
  EXPECT_EQ(top[1].first, a_);
}

TEST_F(PageRankFixture, DanglingMassIsRedistributed) {
  // b has no out-links: its rank must leak back uniformly instead of
  // draining the total mass below 1.
  store_.Add({a_, link_, b_});
  PageRankOptions options;
  PageRankResult result = ComputePageRank(store_, options, nullptr);
  double sum = 0;
  for (double r : result.ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_GT(RankOf(result, b_), RankOf(result, a_));
}

TEST_F(PageRankFixture, ParallelMatchesSerial) {
  std::mt19937 rng(17);
  std::vector<TermId> nodes;
  for (int i = 0; i < 40; ++i) nodes.push_back(Iri("n" + std::to_string(i)));
  for (int i = 0; i < 300; ++i) {
    TermId s = nodes[rng() % nodes.size()];
    TermId o = nodes[rng() % nodes.size()];
    if (s != o) store_.Add({s, link_, o});
  }
  PageRankOptions options;
  options.max_iterations = 30;
  options.tolerance = 0;  // fixed iteration count: bitwise comparable
  PageRankResult serial = ComputePageRank(store_, options, nullptr);
  ThreadPool pool(4);
  PageRankResult parallel = ComputePageRank(store_, options, &pool);
  ASSERT_EQ(serial.nodes, parallel.nodes);
  ASSERT_EQ(serial.ranks.size(), parallel.ranks.size());
  for (size_t i = 0; i < serial.ranks.size(); ++i) {
    // Per-chunk partial sums reorder float additions; allow for that.
    EXPECT_NEAR(serial.ranks[i], parallel.ranks[i], 1e-12) << i;
  }
  EXPECT_EQ(serial.iterations, parallel.iterations);
}

TEST_F(PageRankFixture, ExcludedPredicatesContributeNoEdges) {
  TermId type = Iri("rdfType");
  store_.Add({a_, link_, b_});
  store_.Add({a_, type, c_});
  store_.Add({b_, type, c_});
  PageRankOptions options;
  options.exclude_predicates = {type};
  PageRankResult result = ComputePageRank(store_, options, nullptr);
  EXPECT_EQ(result.num_edges, 1u);
  // c only appears as object of excluded triples: not a node at all.
  EXPECT_EQ(RankOf(result, c_), -1);
}

TEST_F(PageRankFixture, LiteralObjectsFilteredWhenDictionaryGiven) {
  TermId year = store_.dict().Intern(Term::IntLiteral(1972));
  store_.Add({a_, link_, b_});
  store_.Add({a_, link_, year});
  PageRankOptions options;
  options.iri_objects_only = &store_.dict();
  PageRankResult result = ComputePageRank(store_, options, nullptr);
  EXPECT_EQ(result.num_edges, 1u);
  EXPECT_EQ(RankOf(result, year), -1);
}

TEST_F(PageRankFixture, ConvergesEarlyUnderTolerance) {
  store_.Add({a_, link_, b_});
  store_.Add({b_, link_, a_});
  PageRankOptions options;
  options.max_iterations = 100;
  options.tolerance = 1e-4;
  PageRankResult result = ComputePageRank(store_, options, nullptr);
  EXPECT_LT(result.iterations, 100);
  EXPECT_LE(result.last_delta, 1e-4);
  // The symmetric 2-cycle settles at 1/2 each.
  EXPECT_NEAR(RankOf(result, a_), 0.5, 1e-3);
}

TEST(PageRankInsertTest, WritesTopKFactsIntoKb) {
  core::KnowledgeBase kb;
  core::FactMeta meta;
  meta.confidence = 1.0;
  ASSERT_TRUE(kb.AssertFact("A", "linksTo", "B", meta));
  ASSERT_TRUE(kb.AssertFact("C", "linksTo", "B", meta));
  PageRankResult result =
      ComputePageRank(kb.store(), PageRankOptions(), nullptr);
  size_t before = kb.NumTriples();
  uint64_t epoch_before = kb.epoch();
  size_t inserted = InsertPageRankFacts(result, 2, "pagerankScore", &kb);
  EXPECT_EQ(inserted, 2u);
  EXPECT_EQ(kb.NumTriples(), before + 2);
  EXPECT_GT(kb.epoch(), epoch_before);
  // The facts are ordinary triples: findable through the store.
  TermId prop = kb.PropertyTerm("pagerankScore");
  auto scores = kb.store().MatchFullScan({rdf::kAnyTerm, prop, rdf::kAnyTerm});
  EXPECT_EQ(scores.size(), 2u);
  for (const rdf::Triple& t : scores) {
    EXPECT_TRUE(kb.store().dict().term(t.o).is_literal());
  }
}

// ------------------------------------------------------------ ClassStats

class ClassStatsFixture : public ::testing::Test {
 protected:
  TermId Iri(const std::string& s) {
    return store_.dict().Intern(Term::Iri(s));
  }

  void SetUp() override {
    type_ = Iri("type");
    subclass_ = Iri("subClassOf");
    person_ = Iri("Person");
    scientist_ = Iri("Scientist");
    physicist_ = Iri("Physicist");
    singer_ = Iri("Singer");
    options_.type_predicate = type_;
    options_.subclass_predicate = subclass_;
  }

  rdf::TripleStore store_;
  ClassStatsOptions options_;
  TermId type_, subclass_, person_, scientist_, physicist_, singer_;
};

TEST_F(ClassStatsFixture, RollupCountsAncestors) {
  store_.Add({physicist_, subclass_, scientist_});
  store_.Add({scientist_, subclass_, person_});
  store_.Add({singer_, subclass_, person_});
  TermId einstein = Iri("Einstein");
  TermId bohr = Iri("Bohr");
  TermId elvis = Iri("Elvis");
  store_.Add({einstein, type_, physicist_});
  store_.Add({bohr, type_, physicist_});
  store_.Add({elvis, type_, singer_});
  ClassStatsResult result = ComputeClassStats(store_, options_, nullptr);
  EXPECT_EQ(result.num_entities, 3u);
  EXPECT_EQ(CountOf(result, physicist_), 2u);
  EXPECT_EQ(CountOf(result, scientist_), 2u);
  EXPECT_EQ(CountOf(result, singer_), 1u);
  EXPECT_EQ(CountOf(result, person_), 3u);
  // Count-descending, ties by smaller id: Person first.
  ASSERT_FALSE(result.counts.empty());
  EXPECT_EQ(result.counts[0].first, person_);
  EXPECT_EQ(result.counts[0].second, 3u);
}

TEST_F(ClassStatsFixture, DiamondTaxonomyCountsEachAncestorOnce) {
  // physicist -> scientist -> person and physicist -> academic ->
  // person: an entity typed physicist reaches person twice but counts
  // once.
  TermId academic = Iri("Academic");
  store_.Add({physicist_, subclass_, scientist_});
  store_.Add({physicist_, subclass_, academic});
  store_.Add({scientist_, subclass_, person_});
  store_.Add({academic, subclass_, person_});
  TermId einstein = Iri("Einstein");
  store_.Add({einstein, type_, physicist_});
  ClassStatsResult result = ComputeClassStats(store_, options_, nullptr);
  EXPECT_EQ(CountOf(result, person_), 1u);
  EXPECT_EQ(CountOf(result, scientist_), 1u);
  EXPECT_EQ(CountOf(result, academic), 1u);
}

TEST_F(ClassStatsFixture, SubclassCycleTerminates) {
  // a <-> b cycle plus an entity typed a: the closure must terminate
  // and count both classes once.
  TermId ca = Iri("CycleA");
  TermId cb = Iri("CycleB");
  store_.Add({ca, subclass_, cb});
  store_.Add({cb, subclass_, ca});
  TermId e = Iri("E");
  store_.Add({e, type_, ca});
  ClassStatsResult result = ComputeClassStats(store_, options_, nullptr);
  EXPECT_EQ(CountOf(result, ca), 1u);
  EXPECT_EQ(CountOf(result, cb), 1u);
  EXPECT_EQ(result.num_entities, 1u);
}

TEST_F(ClassStatsFixture, RollupOffCountsDirectTypesOnly) {
  store_.Add({physicist_, subclass_, scientist_});
  TermId einstein = Iri("Einstein");
  store_.Add({einstein, type_, physicist_});
  options_.rollup = false;
  ClassStatsResult result = ComputeClassStats(store_, options_, nullptr);
  EXPECT_EQ(CountOf(result, physicist_), 1u);
  EXPECT_EQ(CountOf(result, scientist_), 0u);
}

TEST_F(ClassStatsFixture, DuplicateTypeAssertionsCountOnce) {
  TermId einstein = Iri("Einstein");
  store_.Add({einstein, type_, physicist_});
  store_.Add({einstein, type_, physicist_});
  ClassStatsResult result = ComputeClassStats(store_, options_, nullptr);
  EXPECT_EQ(CountOf(result, physicist_), 1u);
  EXPECT_EQ(result.num_entities, 1u);
}

TEST_F(ClassStatsFixture, ParallelMatchesSerial) {
  std::mt19937 rng(23);
  std::vector<TermId> classes;
  for (int i = 0; i < 12; ++i) {
    classes.push_back(Iri("class" + std::to_string(i)));
  }
  // Random upward taxonomy edges (child index > parent index keeps it
  // acyclic, but cycles would be fine too).
  for (int i = 1; i < 12; ++i) {
    store_.Add({classes[i], subclass_, classes[rng() % i]});
  }
  for (int i = 0; i < 200; ++i) {
    TermId e = Iri("entity" + std::to_string(i));
    store_.Add({e, type_, classes[rng() % classes.size()]});
    if (rng() % 3 == 0) {
      store_.Add({e, type_, classes[rng() % classes.size()]});
    }
  }
  ClassStatsResult serial = ComputeClassStats(store_, options_, nullptr);
  ThreadPool pool(4);
  ClassStatsResult parallel = ComputeClassStats(store_, options_, &pool);
  EXPECT_EQ(serial.counts, parallel.counts);
  EXPECT_EQ(serial.num_entities, parallel.num_entities);
  EXPECT_EQ(serial.num_classes, parallel.num_classes);
}

TEST(ClassStatsInsertTest, WritesCountFactsIntoKb) {
  core::KnowledgeBase kb;
  core::FactMeta meta;
  meta.confidence = 1.0;
  ASSERT_TRUE(kb.AssertFact("A", "worksFor", "B", meta));
  ClassStatsResult stats;
  stats.counts = {{kb.PropertyTerm("worksFor"), 7}};
  stats.num_classes = 1;
  size_t before = kb.NumTriples();
  size_t inserted = InsertClassStatsFacts(stats, "entityCount", &kb);
  EXPECT_EQ(inserted, 1u);
  EXPECT_EQ(kb.NumTriples(), before + 1);
  TermId prop = kb.PropertyTerm("entityCount");
  auto counts = kb.store().MatchFullScan({rdf::kAnyTerm, prop, rdf::kAnyTerm});
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_TRUE(kb.store().dict().term(counts[0].o).is_literal());
}

// ---------------------------------------------------------- hybrid store

/// PageRank by brute force: the link graph as std::map adjacency from a
/// full scan, then plain power iteration for a fixed iteration count.
struct ReferenceRanks {
  std::map<TermId, double> ranks;
  size_t num_edges = 0;
};

ReferenceRanks BruteForcePageRank(const rdf::TripleStore& store,
                                  const std::set<TermId>& excluded,
                                  int iterations, double d) {
  ReferenceRanks ref;
  std::map<TermId, std::vector<TermId>> in_edges;
  std::map<TermId, size_t> out_degree;
  for (const rdf::Triple& t : store.MatchFullScan({})) {
    if (excluded.count(t.p) > 0 || !store.dict().term(t.o).is_iri()) {
      continue;
    }
    in_edges[t.o].push_back(t.s);
    ++out_degree[t.s];
    ref.ranks[t.s] = ref.ranks[t.o] = 0;
    ++ref.num_edges;
  }
  const double n = static_cast<double>(ref.ranks.size());
  for (auto& [node, rank] : ref.ranks) rank = 1.0 / n;
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0;
    for (const auto& [node, rank] : ref.ranks) {
      if (out_degree.count(node) == 0) dangling += rank;
    }
    std::map<TermId, double> next;
    for (const auto& [node, rank] : ref.ranks) {
      double in_sum = 0;
      for (TermId src : in_edges[node]) {
        in_sum += ref.ranks.at(src) / static_cast<double>(out_degree[src]);
      }
      next[node] = (1 - d) / n + d * dangling / n + d * in_sum;
    }
    ref.ranks = std::move(next);
  }
  return ref;
}

/// A store over a FrameStore base (a serialized KB snapshot) plus a
/// delta with overlay ids, literal objects on both sides and excluded
/// predicates on both sides; and a plain store holding the same triples
/// under the same ids.
class HybridStoreAnalyticsTest : public ::testing::Test {
 protected:
  static std::string Entity(size_t i) { return "E" + std::to_string(i); }

  void SetUp() override {
    core::KnowledgeBase kb;
    core::FactMeta meta;
    std::mt19937 rng(41);
    for (int i = 0; i < 300; ++i) {
      kb.AssertFact(Entity(rng() % 50), "linksTo", Entity(rng() % 50), meta);
    }
    for (int i = 0; i < 50; i += 3) {
      kb.AssertYearFact(Entity(i), "bornIn", 1900 + i, meta);
    }
    kb.AssertSubclass("Physicist", "Scientist");
    kb.AssertSubclass("Scientist", "Person");
    kb.AssertSubclass("Singer", "Person");
    for (int i = 0; i < 50; ++i) {
      kb.AssertType(Entity(i), i % 3 == 0 ? "Physicist" : "Singer");
      if (i % 7 == 0) kb.AssertType(Entity(i), "Scientist");
    }
    kb.AssertLabel(Entity(0), "zero", "en");
    auto bytes = core::SerializeKbSnapshot(kb);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto owner = std::make_shared<std::string>(std::move(*bytes));
    auto base = rdf::FrameStore::Attach(owner->data(), owner->size(), owner);
    ASSERT_TRUE(base.ok()) << base.status();
    hybrid_ = std::make_unique<rdf::TripleStore>(*base);

    rdf::Dictionary& dict = hybrid_->dict();
    auto iri = [&](const std::string& s) { return dict.InternIri(s); };
    link_ = iri(rdf::PropertyIri("linksTo"));
    born_ = iri(rdf::PropertyIri("bornIn"));
    type_ = iri(std::string(rdf::kRdfType));
    subclass_ = iri(std::string(rdf::kRdfsSubClassOf));
    label_ = iri(std::string(rdf::kRdfsLabel));
    const size_t base_size = dict.base_size();
    ASSERT_LE(std::max({link_, born_, type_, subclass_, label_}), base_size);

    // The delta: overlay entities linked among themselves and into the
    // base, overlay and base literal objects, overlay type triples and
    // an overlay class under a base class.
    std::vector<TermId> entities;
    for (int i = 0; i < 50; ++i) {
      entities.push_back(iri(rdf::EntityIri(Entity(i))));
    }
    for (int i = 0; i < 20; ++i) {
      TermId fresh = iri(rdf::EntityIri("N" + std::to_string(i)));
      ASSERT_GT(fresh, base_size);
      entities.push_back(fresh);
    }
    for (int i = 0; i < 150; ++i) {
      hybrid_->Add({entities[rng() % entities.size()], link_,
                    entities[rng() % entities.size()]});
    }
    TermId base_year = dict.Lookup(Term::IntLiteral(1900));
    ASSERT_NE(base_year, rdf::kInvalidTermId);
    ASSERT_LE(base_year, base_size);
    TermId chemist = iri(rdf::ClassIri("Chemist"));
    hybrid_->Add({chemist, subclass_, iri(rdf::ClassIri("Scientist"))});
    for (int i = 50; i < 70; ++i) {
      hybrid_->Add(
          {entities[i], born_, dict.Intern(Term::IntLiteral(2000 + i))});
      hybrid_->Add({entities[i], born_, base_year});
      hybrid_->Add({entities[i], type_,
                    i % 2 == 0 ? chemist : iri(rdf::ClassIri("Singer"))});
    }
    hybrid_->Add(
        {entities[55], label_, dict.Intern(Term::LangLiteral("n", "en"))});

    for (TermId id = 1; id <= dict.size(); ++id) {
      ASSERT_EQ(plain_.dict().Intern(dict.term(id)), id);
    }
    for (const rdf::Triple& t : hybrid_->MatchFullScan({})) plain_.Add(t);
    ASSERT_EQ(plain_.size(), hybrid_->size());
  }

  PageRankOptions RankOptions(const rdf::TripleStore& store) const {
    PageRankOptions options;
    options.max_iterations = 30;
    options.tolerance = 0;  // fixed iteration count: comparable runs
    options.exclude_predicates = {type_, subclass_, label_};
    options.iri_objects_only = &store.dict();
    return options;
  }

  std::unique_ptr<rdf::TripleStore> hybrid_;
  rdf::TripleStore plain_;
  TermId link_ = 0, born_ = 0, type_ = 0, subclass_ = 0, label_ = 0;
};

TEST_F(HybridStoreAnalyticsTest, PageRankMatchesBruteForceReference) {
  PageRankResult result =
      ComputePageRank(*hybrid_, RankOptions(*hybrid_), nullptr);
  ReferenceRanks ref =
      BruteForcePageRank(*hybrid_, {type_, subclass_, label_}, 30, 0.85);
  std::vector<TermId> ref_nodes;
  for (const auto& [node, rank] : ref.ranks) ref_nodes.push_back(node);
  ASSERT_EQ(result.nodes, ref_nodes);
  EXPECT_EQ(result.num_edges, ref.num_edges);
  EXPECT_EQ(result.iterations, 30);
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    EXPECT_NEAR(result.ranks[i], ref.ranks.at(result.nodes[i]), 1e-12)
        << result.nodes[i];
  }
  // Overlay ids are nodes; literal objects on either side are not.
  EXPECT_GT(result.nodes.back(), hybrid_->dict().base_size());
  for (TermId node : result.nodes) {
    EXPECT_EQ(hybrid_->dict().kind(node), rdf::TermKind::kIri) << node;
  }
}

TEST_F(HybridStoreAnalyticsTest, SerialPooledAndPlainCopyAgree) {
  PageRankResult serial =
      ComputePageRank(*hybrid_, RankOptions(*hybrid_), nullptr);
  ThreadPool pool(4);
  PageRankResult pooled =
      ComputePageRank(*hybrid_, RankOptions(*hybrid_), &pool);
  PageRankResult plain = ComputePageRank(plain_, RankOptions(plain_), &pool);
  ASSERT_EQ(serial.nodes, pooled.nodes);
  ASSERT_EQ(serial.nodes, plain.nodes);
  EXPECT_EQ(serial.num_edges, pooled.num_edges);
  EXPECT_EQ(serial.num_edges, plain.num_edges);
  EXPECT_EQ(serial.iterations, pooled.iterations);
  for (size_t i = 0; i < serial.ranks.size(); ++i) {
    EXPECT_NEAR(serial.ranks[i], pooled.ranks[i], 1e-12) << i;
    EXPECT_NEAR(serial.ranks[i], plain.ranks[i], 1e-12) << i;
  }
}

TEST_F(HybridStoreAnalyticsTest, ClassStatsMatchPlainCopy) {
  ClassStatsOptions options;
  options.type_predicate = type_;
  options.subclass_predicate = subclass_;
  ThreadPool pool(4);
  ClassStatsResult hybrid = ComputeClassStats(*hybrid_, options, nullptr);
  ClassStatsResult pooled = ComputeClassStats(*hybrid_, options, &pool);
  ClassStatsResult plain = ComputeClassStats(plain_, options, nullptr);
  EXPECT_EQ(hybrid.counts, plain.counts);
  EXPECT_EQ(hybrid.counts, pooled.counts);
  EXPECT_EQ(hybrid.num_entities, 70u);
  EXPECT_EQ(hybrid.num_entities, plain.num_entities);
  EXPECT_EQ(hybrid.num_classes, plain.num_classes);
  // Every entity is a Person, through Physicist, Singer or the overlay
  // class Chemist.
  EXPECT_EQ(CountOf(hybrid, hybrid_->dict().Lookup(
                                Term::Iri(rdf::ClassIri("Person")))),
            70u);
}

}  // namespace
}  // namespace analytics
}  // namespace kb
