#include "server/kb_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>

#include "analytics/class_stats.h"
#include "analytics/pagerank.h"
#include "core/entity_card.h"
#include "query/plan.h"
#include "rdf/namespaces.h"
#include "server/protocol.h"
#include "util/logging.h"

namespace kb {
namespace server {

namespace {

/// The bad_request response for a numeric field GetInt refused.
std::string BadField(const std::string& field) {
  return ErrorJson("bad_request", field + " must be an integer in range");
}

/// Splices a serialized result body ("{...}") into an ok envelope with
/// the cached flag, without re-parsing the body — this is the entire
/// work of a result-cache hit.
std::string OkWithBody(const std::string& body, bool cached) {
  std::string out = "{\"status\":\"ok\",\"cached\":";
  out += cached ? "true" : "false";
  if (body.size() > 2) {
    out += ',';
    out.append(body, 1, body.size() - 1);  // body without its '{'
  } else {
    out += '}';
  }
  return out;
}

}  // namespace

struct KbServer::Metrics {
  Counter& requests;
  Counter& errors;
  Counter& queries;
  Counter& entity_cards;
  Counter& inserted_facts;
  Counter& analytics;
  Counter& deadline_exceeded;
  Histogram& request_ms;
  Histogram& query_ms;
  Histogram& analytics_ms;
  Histogram& repl_append_ms;

  static Metrics* Get() {
    static Metrics* m = [] {
      MetricsRegistry& r = MetricsRegistry::Default();
      return new Metrics{
          r.counter("server.requests"),
          r.counter("server.errors"),
          r.counter("server.queries"),
          r.counter("server.entity_cards"),
          r.counter("server.inserted_facts"),
          r.counter("server.analytics"),
          r.counter("server.deadline_exceeded"),
          r.histogram("server.request_ms"),
          r.histogram("server.query_ms"),
          r.histogram("server.analytics_ms"),
          r.histogram("repl.append_ms"),
      };
    }();
    return m;
  }
};

KbServer::KbServer(core::KnowledgeBase* kb, const Options& options)
    : kb_(kb),
      options_(options),
      result_cache_(options.cache_bytes),
      metrics_(Metrics::Get()) {}

KbServer::~KbServer() { Stop(); }

Status KbServer::Start() {
  MetricsRegistry& r = MetricsRegistry::Default();
  EventMetrics metrics;
  metrics.open_connections = &r.gauge("server.open_connections");
  metrics.queue_depth = &r.gauge("server.queue_depth");
  metrics.epoll_wakeups = &r.counter("server.epoll_wakeups");
  metrics.pipelined_frames = &r.counter("server.pipelined_frames");
  metrics.idle_closed = &r.counter("server.idle_closed");
  metrics.rejected = &r.counter("server.rejected");
  metrics.errors = &metrics_->errors;
  event_server_ = std::make_unique<EventServer>(
      options_, metrics,
      EventHooks{[this](const std::string& payload) {
        return HandleFrame(payload);
      }});
  started_at_ = std::chrono::steady_clock::now();
  Status s = event_server_->Start();
  if (!s.ok()) event_server_.reset();
  return s;
}

void KbServer::Stop() {
  if (event_server_) event_server_->Stop();
}

void KbServer::Drain(double timeout_ms) {
  if (event_server_) event_server_->Drain(timeout_ms);
}

void KbServer::WithWriteLock(const std::function<void()>& fn) {
  std::unique_lock<std::shared_mutex> lock(kb_mu_);
  fn();
}

uint64_t KbServer::applied_epoch() const {
  return options_.applied_epoch_fn ? options_.applied_epoch_fn()
                                   : kb_->epoch();
}

std::string KbServer::HandleFrame(const std::string& payload) {
  ScopedTimer timer(metrics_->request_ms);
  metrics_->requests.Increment();
  auto request = Json::Parse(payload);
  if (!request.ok()) {
    // Framing is intact; only this request was garbage.
    metrics_->errors.Increment();
    return ErrorJson("bad_request", request.status().message());
  }
  try {
    return HandleRequest(*request);
  } catch (const std::exception& e) {
    metrics_->errors.Increment();
    return ErrorJson("internal", e.what());
  }
}

std::string KbServer::HandleRequest(const Json& request) {
  const std::string op = request.GetString("op");
  if (op == "query") return HandleQuery(request);
  if (op == "entity_card") return HandleEntityCard(request);
  if (op == "insert_facts") return HandleInsertFacts(request);
  if (op == "analytics") return HandleAnalytics(request);
  if (op == "health") return HandleHealth();
  if (op == "metrics") return HandleMetrics();
  metrics_->errors.Increment();
  return ErrorJson("unknown_endpoint", "no such op: " + op);
}

std::string KbServer::CheckMinEpoch(const Json& request) const {
  uint64_t min_epoch = 0;
  if (!request.GetInt("min_epoch", &min_epoch)) return BadField("min_epoch");
  const uint64_t applied = applied_epoch();
  if (applied >= min_epoch) return std::string();
  // Read-your-writes: this replica has not yet applied the epoch the
  // client's own writes reached. The caller (router or retrying
  // client) redirects to the leader or a fresher replica.
  return ErrorJson("stale_replica",
                   "applied epoch " + std::to_string(applied) +
                       " < required " + std::to_string(min_epoch));
}

std::string KbServer::HandleQuery(const Json& request) {
  metrics_->queries.Increment();
  ScopedTimer timer(metrics_->query_ms);
  const std::string sparql = request.GetString("sparql");
  if (sparql.empty()) return ErrorJson("bad_request", "missing sparql");
  if (std::string stale = CheckMinEpoch(request); !stale.empty()) {
    return stale;
  }

  // The epoch is read *before* parse/execute: if a write lands in
  // between, the entry is cached under the older epoch and simply
  // never matches again — the safe direction. (Reading it after could
  // file pre-write rows under the post-write epoch: a stale read.)
  const uint64_t epoch = kb_->epoch();
  // Held across parse, execute and render: the exclusive side
  // (insert_facts, WithWriteLock) must quiesce the whole read path —
  // a background checkpoint move-assigns the KB out from under any
  // reader it has not excluded.
  std::shared_lock<std::shared_mutex> lock(kb_mu_);
  auto parsed = kb_->ParseQuery(sparql);
  if (!parsed.ok()) return ErrorJson("bad_query", parsed.status().ToString());

  query::ExecutionOptions exec;
  double deadline_ms = options_.default_deadline_ms;
  if (!request["deadline_ms"].is_null()) {
    int32_t ms = 0;
    if (!request.GetInt("deadline_ms", &ms)) return BadField("deadline_ms");
    // Negative = explicit "no deadline"; 0 = expire immediately.
    deadline_ms = ms < 0 ? 0 : (ms == 0 ? 1e-9 : ms);
  }
  if (deadline_ms > 0) {
    exec.exec.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(static_cast<int64_t>(deadline_ms * 1000));
  }
  size_t max_rows = options_.default_max_rows;
  int64_t requested_rows = -1;  // negative = the server default
  if (!request.GetInt("max_rows", &requested_rows)) {
    return BadField("max_rows");
  }
  if (requested_rows >= 0) max_rows = static_cast<size_t>(requested_rows);
  exec.exec.max_rows = max_rows;

  const bool use_cache =
      result_cache_.enabled() && !request.GetBool("no_cache", false);
  std::string cache_key;
  if (use_cache) {
    // Normalized shape + constants (the plan-cache key) plus what the
    // plan deliberately leaves out but the result depends on.
    cache_key = query::PlanCacheKey(*parsed, exec.reorder_patterns);
    cache_key += "|limit=" + std::to_string(parsed->limit);
    cache_key += "|cap=" + std::to_string(max_rows);
    // The plan key deliberately omits top-k (the plan is k-agnostic);
    // the result is not.
    cache_key += "|topk=" + std::to_string(parsed->agg.top_k);
    if (auto body = result_cache_.Lookup(cache_key, epoch);
        body != nullptr) {
      return OkWithBody(*body, /*cached=*/true);
    }
  }

  query::QueryStats stats;
  std::vector<query::Binding> rows = kb_->Execute(*parsed, exec, &stats);
  if (stats.deadline_exceeded) {
    // Partial-free by contract: whatever prefix was produced is
    // dropped, the client sees an error it can retry with a longer
    // budget — never silently truncated data.
    metrics_->deadline_exceeded.Increment();
    return ErrorJson("deadline_exceeded",
                     "query missed its deadline after " +
                         std::to_string(stats.rows_streamed) + " rows");
  }

  Json body = Json::Object();
  {
    // Term rendering reads the dictionary, which insert_facts grows
    // under the exclusive side of the lock held above.
    const rdf::Dictionary& dict = kb_->store().dict();
    std::vector<std::string> columns = parsed->projection;
    if (parsed->agg.enabled()) {
      // Aggregate results are [group values..., count]; the count
      // column is a plain number, not a dictionary term.
      columns = parsed->agg.group_by;
      columns.push_back(parsed->agg.out_name.empty() ? "count"
                                                     : parsed->agg.out_name);
    } else if (columns.empty() && !rows.empty()) {
      for (const auto& [var, id] : rows.front()) columns.push_back(var);
    }
    Json columns_json = Json::Array();
    for (const std::string& c : columns) columns_json.Append(Json::Str(c));
    Json rows_json = Json::Array();
    for (const query::Binding& row : rows) {
      Json row_json = Json::Array();
      for (size_t c = 0; c < columns.size(); ++c) {
        auto it = row.find(columns[c]);
        if (it == row.end() || it->second == rdf::kInvalidTermId) {
          row_json.Append(Json::Null());
        } else if (parsed->agg.enabled() && c + 1 == columns.size()) {
          row_json.Append(Json::Number(static_cast<double>(it->second)));
        } else {
          const rdf::Term& term = dict.term(it->second);
          row_json.Append(Json::Str(
              term.is_iri() ? rdf::Abbreviate(term.value()) : term.value()));
        }
      }
      rows_json.Append(std::move(row_json));
    }
    body.Set("columns", std::move(columns_json));
    body.Set("rows", std::move(rows_json));
  }
  body.Set("row_count", Json::Number(static_cast<double>(rows.size())));
  if (stats.max_rows_hit) body.Set("truncated", Json::Bool(true));

  std::string serialized = body.Dump();
  // A row-capped result is a prefix; caching it would serve the
  // truncation to callers with a different tolerance.
  if (use_cache && !stats.max_rows_hit) {
    result_cache_.Insert(cache_key, epoch, serialized);
  }
  return OkWithBody(serialized, /*cached=*/false);
}

std::string KbServer::HandleEntityCard(const Json& request) {
  metrics_->entity_cards.Increment();
  const std::string entity = request.GetString("entity");
  if (entity.empty()) return ErrorJson("bad_request", "missing entity");
  if (std::string stale = CheckMinEpoch(request); !stale.empty()) {
    return stale;
  }
  core::EntityCardOptions card_options;
  int64_t max_facts = 0;  // <= 0 = the card default
  if (!request.GetInt("max_facts", &max_facts)) return BadField("max_facts");
  if (max_facts > 0) card_options.max_facts = static_cast<size_t>(max_facts);
  StatusOr<core::EntityCard> card = [&] {
    std::shared_lock<std::shared_mutex> lock(kb_mu_);
    return core::BuildEntityCard(*kb_, entity, card_options);
  }();
  if (!card.ok()) {
    if (card.status().IsNotFound()) {
      return ErrorJson("not_found", card.status().message());
    }
    return ErrorJson("internal", card.status().ToString());
  }
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("canonical", Json::Str(card->canonical));
  response.Set("display_name", Json::Str(card->display_name));
  Json types = Json::Array();
  for (const std::string& type : card->types) types.Append(Json::Str(type));
  response.Set("types", std::move(types));
  Json facts = Json::Array();
  for (const core::CardFact& fact : card->facts) {
    Json f = Json::Object();
    f.Set("property", Json::Str(fact.property));
    f.Set("value", Json::Str(fact.value));
    f.Set("confidence", Json::Number(fact.confidence));
    f.Set("support", Json::Number(fact.support));
    facts.Append(std::move(f));
  }
  response.Set("facts", std::move(facts));
  Json labels = Json::Array();
  for (const auto& [lang, label] : card->labels) {
    Json l = Json::Object();
    l.Set("lang", Json::Str(lang));
    l.Set("label", Json::Str(label));
    labels.Append(std::move(l));
  }
  response.Set("labels", std::move(labels));
  response.Set("text", Json::Str(core::RenderEntityCard(*card)));
  return response.Dump();
}

std::string KbServer::HandleInsertFacts(const Json& request) {
  if (options_.read_only) {
    return ErrorJson("not_leader",
                     "this replica is read-only; send writes to the leader");
  }
  const Json& facts = request["facts"];
  if (!facts.is_array()) {
    return ErrorJson("bad_request", "facts must be an array");
  }
  // Decode and validate outside the lock; invalid entries are counted
  // and dropped here so the replication log only ever sees facts that
  // will actually be asserted.
  std::vector<WireFact> batch;
  batch.reserve(facts.items().size());
  std::vector<core::FactMeta> metas;
  metas.reserve(facts.items().size());
  size_t skipped = 0;
  for (const Json& fact : facts.items()) {
    WireFact wire;
    wire.s = fact.GetString("s");
    wire.p = fact.GetString("p");
    wire.o = fact.GetString("o");
    wire.has_year = !fact["year"].is_null();
    core::FactMeta meta;
    const bool numbers_ok = fact.GetInt("year", &wire.year) &&
                            fact.GetInt("support", &wire.support) &&
                            fact.GetInt("extractor", &meta.extractor);
    if (!fact.is_object() || !numbers_ok || wire.s.empty() || wire.p.empty() ||
        (wire.o.empty() && !wire.has_year)) {
      ++skipped;
      continue;
    }
    wire.confidence = fact.GetNumber("confidence", 1.0);
    meta.confidence = wire.confidence;
    meta.support = wire.support;
    batch.push_back(std::move(wire));
    metas.push_back(meta);
  }
  if (options_.pre_insert_hook && !batch.empty()) {
    // Log before apply, and before the exclusive lock so readers never
    // wait on the log's fsync: a follower can over-receive (idempotent
    // replay dedups) but must never under-receive relative to the
    // epoch this response publishes.
    ScopedTimer append_timer(metrics_->repl_append_ms);
    Status logged = options_.pre_insert_hook(batch);
    if (!logged.ok()) {
      metrics_->errors.Increment();
      return ErrorJson("internal",
                       "replication log append failed: " + logged.ToString());
    }
  }
  size_t inserted = 0, merged = 0;
  {
    std::unique_lock<std::shared_mutex> lock(kb_mu_);
    for (size_t i = 0; i < batch.size(); ++i) {
      const WireFact& wire = batch[i];
      bool fresh = wire.has_year
                       ? kb_->AssertYearFact(wire.s, wire.p, wire.year,
                                             metas[i])
                       : kb_->AssertFact(wire.s, wire.p, wire.o, metas[i]);
      if (fresh) ++inserted;
      else ++merged;
    }
  }
  metrics_->inserted_facts.Increment(inserted);
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("inserted", Json::Number(static_cast<double>(inserted)));
  response.Set("merged", Json::Number(static_cast<double>(merged)));
  response.Set("skipped", Json::Number(static_cast<double>(skipped)));
  response.Set("epoch", Json::Number(static_cast<double>(kb_->epoch())));
  return response.Dump();
}

ThreadPool* KbServer::AnalyticsPool() {
  std::lock_guard<std::mutex> lock(analytics_pool_mu_);
  if (analytics_pool_ == nullptr) {
    analytics_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(std::max(1, options_.num_workers)));
  }
  return analytics_pool_.get();
}

std::string KbServer::HandleAnalytics(const Json& request) {
  metrics_->analytics.Increment();
  ScopedTimer timer(metrics_->analytics_ms);
  const std::string job = request.GetString("job");
  if (job != "pagerank" && job != "class_stats") {
    return ErrorJson("bad_request", "unknown analytics job: " + job);
  }
  if (std::string stale = CheckMinEpoch(request); !stale.empty()) {
    return stale;
  }

  size_t top_k = 10;
  int64_t requested_k = 0;  // <= 0 = the default
  if (!request.GetInt("top_k", &requested_k)) return BadField("top_k");
  if (requested_k > 0) top_k = static_cast<size_t>(requested_k);
  const bool insert = request.GetBool("insert", false);
  if (insert && options_.read_only) {
    return ErrorJson("not_leader",
                     "this replica is read-only; send writes to the leader");
  }
  const double damping = request.GetNumber("damping", 0.85);
  if (!std::isfinite(damping) || damping < 0 || damping > 1) {
    return ErrorJson("bad_request", "damping must be a number in [0, 1]");
  }
  int iterations = 20;
  if (!request.GetInt("iterations", &iterations) || iterations < 1) {
    return BadField("iterations");
  }
  const bool rollup = request.GetBool("rollup", true);

  // Same caching discipline as queries: epoch read before the scan, a
  // job-shaped key, every write batch invalidates by construction. An
  // inserting run mutates the KB (and bumps the epoch), so it is never
  // served from — or written to — the cache.
  const uint64_t epoch = kb_->epoch();
  const bool use_cache = result_cache_.enabled() && !insert &&
                         !request.GetBool("no_cache", false);
  std::string cache_key;
  if (use_cache) {
    cache_key = "analytics|" + job + "|k=" + std::to_string(top_k);
    if (job == "pagerank") {
      // The exact damping: two values a fixed-precision rendering
      // would round together are different jobs.
      char exact[32];
      std::snprintf(exact, sizeof(exact), "%.17g", damping);
      cache_key += "|d=" + std::string(exact) +
                   "|it=" + std::to_string(iterations);
    } else {
      cache_key += rollup ? "|rollup" : "|direct";
    }
    if (auto body = result_cache_.Lookup(cache_key, epoch);
        body != nullptr) {
      return OkWithBody(*body, /*cached=*/true);
    }
  }

  ThreadPool* pool = AnalyticsPool();
  Json body = Json::Object();
  body.Set("job", Json::Str(job));
  analytics::PageRankResult pagerank;
  analytics::ClassStatsResult class_stats;
  {
    // The scans and term rendering read the store and dictionary;
    // shared side for the whole job so writers (and checkpoints)
    // exclude it wholesale.
    std::shared_lock<std::shared_mutex> lock(kb_mu_);
    const rdf::Dictionary& dict = kb_->store().dict();
    auto predicate = [&](std::string_view iri) {
      return dict.Lookup(rdf::Term::Iri(std::string(iri)));
    };
    if (job == "pagerank") {
      analytics::PageRankOptions opt;
      opt.damping = damping;
      opt.max_iterations = iterations;
      opt.iri_objects_only = &dict;
      for (std::string_view iri :
           {rdf::kRdfType, rdf::kRdfsSubClassOf, rdf::kRdfsLabel,
            rdf::kOwlSameAs}) {
        rdf::TermId id = predicate(iri);
        if (id != rdf::kInvalidTermId) opt.exclude_predicates.push_back(id);
      }
      pagerank = analytics::ComputePageRank(kb_->store(), opt, pool);
      body.Set("nodes",
               Json::Number(static_cast<double>(pagerank.nodes.size())));
      body.Set("edges",
               Json::Number(static_cast<double>(pagerank.num_edges)));
      body.Set("iterations", Json::Number(pagerank.iterations));
      body.Set("delta", Json::Number(pagerank.last_delta));
      Json top = Json::Array();
      for (const auto& [node, score] : pagerank.TopK(top_k)) {
        Json entry = Json::Object();
        entry.Set("entity",
                  Json::Str(rdf::Abbreviate(dict.term(node).value())));
        entry.Set("score", Json::Number(score));
        top.Append(std::move(entry));
      }
      body.Set("top", std::move(top));
    } else {
      analytics::ClassStatsOptions opt;
      opt.type_predicate = predicate(rdf::kRdfType);
      opt.subclass_predicate = predicate(rdf::kRdfsSubClassOf);
      opt.rollup = rollup;
      class_stats = analytics::ComputeClassStats(kb_->store(), opt, pool);
      body.Set("entities",
               Json::Number(static_cast<double>(class_stats.num_entities)));
      body.Set("classes",
               Json::Number(static_cast<double>(class_stats.num_classes)));
      Json top = Json::Array();
      size_t emitted = 0;
      for (const auto& [cls, count] : class_stats.counts) {
        if (emitted++ >= top_k) break;
        Json entry = Json::Object();
        entry.Set("class",
                  Json::Str(rdf::Abbreviate(dict.term(cls).value())));
        entry.Set("count", Json::Number(static_cast<double>(count)));
        top.Append(std::move(entry));
      }
      body.Set("top", std::move(top));
    }
  }
  if (insert) {
    const std::string default_property =
        job == "pagerank" ? "pagerankScore" : "entityCount";
    std::string property = request.GetString("property");
    if (property.empty()) property = default_property;
    size_t inserted = 0;
    {
      // Exclusive: the insert helpers intern literal terms through the
      // raw dictionary handle, which requires quiesced readers. The
      // materialized facts are a local, recomputable cache — they do
      // not ride the replication log (followers rerun the job).
      std::unique_lock<std::shared_mutex> lock(kb_mu_);
      inserted = job == "pagerank"
                     ? analytics::InsertPageRankFacts(pagerank, top_k,
                                                      property, kb_)
                     : analytics::InsertClassStatsFacts(class_stats,
                                                        property, kb_);
    }
    metrics_->inserted_facts.Increment(inserted);
    body.Set("inserted", Json::Number(static_cast<double>(inserted)));
  }

  std::string serialized = body.Dump();
  if (use_cache) result_cache_.Insert(cache_key, epoch, serialized);
  return OkWithBody(serialized, /*cached=*/false);
}

std::string KbServer::HandleHealth() const {
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("healthy", Json::Bool(true));
  {
    std::shared_lock<std::shared_mutex> lock(kb_mu_);
    response.Set("triples",
                 Json::Number(static_cast<double>(kb_->NumTriples())));
    response.Set("entities",
                 Json::Number(static_cast<double>(kb_->NumEntities())));
  }
  response.Set("epoch", Json::Number(static_cast<double>(kb_->epoch())));
  response.Set("role", Json::Str(options_.read_only ? "follower" : "leader"));
  response.Set("applied_epoch",
               Json::Number(static_cast<double>(applied_epoch())));
  double uptime_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - started_at_)
                         .count();
  response.Set("uptime_ms", Json::Number(uptime_ms));
  return response.Dump();
}

std::string KbServer::HandleMetrics() const {
  Json response = Json::Object();
  response.Set("status", Json::Str("ok"));
  response.Set("text",
               Json::Str(MetricsRegistry::Default().Snapshot().ToText()));
  return response.Dump();
}

}  // namespace server
}  // namespace kb
