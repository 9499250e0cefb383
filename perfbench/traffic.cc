#include "traffic.h"

#include <algorithm>
#include <map>
#include <set>

#include "corpus/relations.h"
#include "rdf/namespaces.h"
#include "taxonomy/taxonomy.h"

namespace perfbench {

using kb::corpus::EntityKind;
using kb::corpus::Relation;

namespace {

std::string Iri(std::string_view full) {
  return "<" + std::string(full) + ">";
}
std::string Prop(std::string_view local) {
  return Iri(kb::rdf::PropertyIri(local));
}
std::string Ent(std::string_view canonical) {
  return Iri(kb::rdf::EntityIri(canonical));
}

/// The request classes of each workload's closed-loop client, as one
/// deck whose order is reshuffled every round.
std::vector<OpKind> Deck(Workload workload) {
  std::vector<OpKind> deck;
  auto add = [&deck](OpKind kind, int n) { deck.insert(deck.end(), n, kind); };
  if (workload == Workload::kReport) {
    add(OpKind::kScan, 24);
    add(OpKind::kAgg, 24);
    add(OpKind::kAnalytics, 1);
  } else {
    add(OpKind::kCard, 12);
    add(OpKind::kPoint, 8);
  }
  return deck;
}

}  // namespace

std::set<OpKind> MixKinds(Workload workload) {
  std::vector<OpKind> deck = Deck(workload);
  std::set<OpKind> kinds(deck.begin(), deck.end());
  if (workload == Workload::kIngest) kinds.insert(OpKind::kWrite);
  return kinds;
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCard: return "card";
    case OpKind::kPoint: return "point";
    case OpKind::kScan: return "scan";
    case OpKind::kAgg: return "agg";
    case OpKind::kAnalytics: return "analytics";
    case OpKind::kWrite: return "write";
    case OpKind::kNumKinds: break;
  }
  return "?";
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLookup: return "lookup";
    case Workload::kReport: return "report";
    case Workload::kIngest: return "ingest";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kLookup, Workload::kReport, Workload::kIngest}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

kb::corpus::WorldOptions ScaledWorldOptions(size_t persons, uint64_t seed) {
  kb::corpus::WorldOptions o;
  o.seed = seed;
  o.num_persons = persons;
  o.num_cities = std::max<size_t>(20, persons / 40);
  o.num_countries = std::max<size_t>(4, persons / 1000);
  o.num_companies = std::max<size_t>(20, persons / 10);
  o.num_universities = std::max<size_t>(5, persons / 100);
  o.num_bands = std::max<size_t>(5, persons / 20);
  o.num_albums = std::max<size_t>(10, persons / 10);
  o.num_films = std::max<size_t>(10, persons / 20);
  return o;
}

void BulkAssert(const kb::corpus::World& world, kb::core::KnowledgeBase* kb) {
  for (const auto& [sub, super] : kb::taxonomy::BackboneEdges()) {
    kb->AssertSubclass(sub, super);
  }
  for (const kb::corpus::Entity& e : world.entities()) {
    if (e.kind == EntityKind::kPerson) {
      for (const std::string& occupation : e.occupations) {
        kb->AssertType(e.canonical, occupation);
      }
    } else {
      kb->AssertType(e.canonical, std::string(EntityKindName(e.kind)));
    }
  }
  for (const kb::corpus::GoldFact& f : world.facts()) {
    const kb::corpus::RelationInfo& info = kb::corpus::GetRelationInfo(f.relation);
    kb::core::FactMeta meta;
    meta.valid_time = f.span;
    const std::string& subject = world.entity(f.subject).canonical;
    const std::string property(info.name);
    if (info.literal_object) {
      kb->AssertYearFact(subject, property, f.literal_year, meta);
    } else {
      kb->AssertFact(subject, property, world.entity(f.object).canonical, meta);
    }
  }
  for (const kb::corpus::Entity& e : world.entities()) {
    kb->AssertLabel(e.canonical, e.full_name, "en");
  }
}

Catalog BuildCatalog(const kb::corpus::World& world, uint64_t seed) {
  std::map<uint32_t, size_t> employees, headquarters, citizens;
  std::map<uint32_t, uint32_t> birth_city, city_country;
  std::set<uint32_t> alumni;
  for (const kb::corpus::GoldFact& f : world.facts()) {
    switch (f.relation) {
      case Relation::kWorksFor: ++employees[f.object]; break;
      case Relation::kHeadquarteredIn: ++headquarters[f.object]; break;
      case Relation::kCitizenOf: ++citizens[f.object]; break;
      case Relation::kBornIn: birth_city[f.subject] = f.object; break;
      case Relation::kLocatedIn: city_country[f.subject] = f.object; break;
      case Relation::kStudiedAt: alumni.insert(f.subject); break;
      default: break;
    }
  }
  std::set<uint32_t> agg_countries;
  for (uint32_t person : alumni) {
    auto city = birth_city.find(person);
    if (city == birth_city.end()) continue;
    auto country = city_country.find(city->second);
    if (country != city_country.end()) agg_countries.insert(country->second);
  }

  kb::Rng rng(seed ^ 0x5eedca7a1090ULL);
  auto names = [&](const std::vector<uint32_t>& ids, bool shuffle) {
    std::vector<std::string> out;
    out.reserve(ids.size());
    for (uint32_t id : ids) out.push_back(world.entity(id).canonical);
    // A seeded permutation decides which entities are Zipf-hot.
    if (shuffle) rng.Shuffle(&out);
    return out;
  };
  auto with = [&](EntityKind kind, auto keep) {
    std::vector<uint32_t> ids;
    for (uint32_t id : world.ByKind(kind)) {
      if (keep(id)) ids.push_back(id);
    }
    return ids;
  };
  Catalog c;
  c.persons = names(world.ByKind(EntityKind::kPerson), true);
  c.companies = names(with(EntityKind::kCompany,
                           [&](uint32_t id) { return employees.count(id); }),
                      true);
  c.hq_cities = names(with(EntityKind::kCity,
                           [&](uint32_t id) { return headquarters.count(id); }),
                      true);
  c.countries = names(with(EntityKind::kCountry,
                           [&](uint32_t id) { return citizens.count(id); }),
                      false);
  c.agg_countries =
      names(with(EntityKind::kCountry,
                 [&](uint32_t id) { return agg_countries.count(id); }),
            false);
  c.cities = names(world.ByKind(EntityKind::kCity), false);
  c.universities = names(world.ByKind(EntityKind::kUniversity), false);
  return c;
}

std::string FreshEntity(uint64_t seed, uint64_t index) {
  return "Fresh_" + std::to_string(seed) + "_" + std::to_string(index);
}

std::vector<kb::server::WireFact> WriteBatch(const Catalog& catalog,
                                             uint64_t seed, uint64_t index) {
  kb::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index);
  const std::string subject = FreshEntity(seed, index);
  auto fact = [&](const char* p, const std::vector<std::string>& objects) {
    kb::server::WireFact f;
    f.s = subject;
    f.p = p;
    f.o = objects[rng.Uniform(objects.size())];
    return f;
  };
  std::vector<kb::server::WireFact> batch;
  batch.push_back(fact("bornIn", catalog.cities));
  batch.push_back(fact("citizenOf", catalog.countries));
  batch.push_back(fact("worksFor", catalog.companies));
  batch.push_back(fact("studiedAt", catalog.universities));
  kb::server::WireFact born;
  born.s = subject;
  born.p = "birthDate";
  born.has_year = true;
  born.year = static_cast<int32_t>(rng.UniformInt(1940, 2000));
  batch.push_back(born);
  return batch;
}

TrafficGen::TrafficGen(const Catalog* catalog, Workload workload,
                       uint64_t seed, uint64_t stream,
                       const std::atomic<uint64_t>* acked_writes)
    : catalog_(catalog),
      workload_(workload),
      seed_(seed),
      rng_(seed * 7919 + stream),
      deck_(Deck(workload)),
      person_zipf_(catalog->persons.size()),
      company_zipf_(catalog->companies.size()),
      city_zipf_(catalog->hq_cities.size()),
      acked_writes_(acked_writes) {
  if (acked_writes_ != nullptr) {
    latest_ = std::make_unique<kb::loadgen::LatestChooser>(acked_writes_);
  }
  rng_.Shuffle(&deck_);
}

Request TrafficGen::Next() {
  if (deck_pos_ == deck_.size()) {
    rng_.Shuffle(&deck_);
    deck_pos_ = 0;
  }
  return Make(deck_[deck_pos_++]);
}

Request TrafficGen::Make(OpKind kind) {
  Request r;
  r.kind = kind;
  // Analyst classes never use the result cache, on any workload.
  r.no_cache = workload_ == Workload::kReport || kind == OpKind::kScan ||
               kind == OpKind::kAgg || kind == OpKind::kAnalytics;
  switch (kind) {
    case OpKind::kCard: {
      uint64_t n = card_count_++;
      if (latest_ != nullptr && n % 3 == 2 &&
          acked_writes_->load(std::memory_order_acquire) > 0) {
        r.fresh_write = static_cast<int64_t>(latest_->Next(rng_));
        r.text = FreshEntity(seed_, static_cast<uint64_t>(r.fresh_write));
      } else {
        r.text = catalog_->persons[person_zipf_.Next(rng_)];
      }
      break;
    }
    case OpKind::kPoint:
      if (point_count_++ % 8 < 5) {
        r.text = "SELECT ?p WHERE { ?p " + Prop("worksFor") + " " +
                 Ent(catalog_->companies[company_zipf_.Next(rng_)]) + " . }";
      } else {
        r.text = "SELECT ?c ?f WHERE { ?c " + Prop("headquarteredIn") + " " +
                 Ent(catalog_->hq_cities[city_zipf_.Next(rng_)]) + " . ?f " +
                 Prop("founded") + " ?c . }";
      }
      break;
    case OpKind::kScan: {
      const std::string& country =
          catalog_->countries[rng_.Uniform(catalog_->countries.size())];
      r.text = "SELECT ?p ?c WHERE { ?p " + Prop("citizenOf") + " " +
               Ent(country) + " . ?p " + Prop("bornIn") + " ?c . } LIMIT " +
               std::to_string(rng_.UniformInt(100, 1000));
      break;
    }
    case OpKind::kAgg: {
      const std::string& country =
          catalog_->agg_countries[rng_.Uniform(catalog_->agg_countries.size())];
      r.text = "SELECT ?u (COUNT(?p) AS ?n) WHERE { ?b " + Prop("locatedIn") +
               " " + Ent(country) + " . ?p " + Prop("bornIn") + " ?b . ?p " +
               Prop("studiedAt") + " ?u . } GROUP BY ?u ORDER BY DESC(?n) "
               "LIMIT 5";
      break;
    }
    case OpKind::kAnalytics:
      // Three PageRank jobs to one class_stats, so the median job is a
      // PageRank run even in a small or filtered sample.
      r.text = analytics_count_++ % 4 == 3 ? "class_stats" : "pagerank";
      break;
    case OpKind::kWrite:
    case OpKind::kNumKinds:
      break;
  }
  return r;
}

}  // namespace perfbench
