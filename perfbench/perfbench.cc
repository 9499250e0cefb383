// kb_perfbench: KBForge's layer-separating benchmark.
//
// Every workload boots the same served volume the way
// `kbforge_serve --volume` does: generate a gold world, bulk-assert it
// into a KnowledgeBase, checkpoint it into generation 1 of a fresh
// KbVolume, Load that volume and serve it through an in-process
// KbServer on loopback. The workloads then drive different traffic at
// it through KbClient:
//
//   lookup  one closed-loop client: 60% entity cards, 40% bound point
//           queries, Zipfian constants. Cache-hot; transport and the
//           card path dominate.
//   report  one closed-loop client, every request no_cache: row-bearing
//           scans, join-heavy top-k aggregates, and 1 in 49 an
//           analytics job. Executor and result shaping dominate.
//   ingest  the server is a replication leader (its pre-insert hook
//           appends to a ReplicationLog); one open-loop writer sends
//           insert_facts batches at a fixed rate while one closed-loop
//           reader sends the lookup mix, a third of its cards aimed at
//           entities written during the run.
//
// Request classes outside a workload's mix are measured by a fixed
// probe, so every run reports every end-to-end metric: read classes
// are spread over the timed phase, between one-second slices of the
// mix; writes follow the timed phase, because a write empties the
// result cache.
//
// Usage:
//   kb_perfbench --workload lookup|report|ingest [--seed N]
//                [--seconds S] [--trace 0|1] [--smoke] [--workdir DIR]
//                [--outdir DIR]
//
// Volumes and logs live under --workdir and are removed at exit; a
// traced run writes its spans and per-layer self times to --outdir.
//
// --trace 0 prints the end-to-end metrics; --trace 1 times the layers
// (spans around every client call and around replays of sampled
// requests through each module's public functions) and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A failed request or answer check makes "correct" false and the exit
// code 1.

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analytics/class_stats.h"
#include "analytics/pagerank.h"
#include "core/entity_card.h"
#include "core/kb_snapshot.h"
#include "core/knowledge_base.h"
#include "rdf/namespaces.h"
#include "replication/repl_log.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "trace.h"
#include "traffic.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using kb::Status;
using kb::core::KnowledgeBase;
using kb::server::KbClient;

// ---------------------------------------------------------------- config

struct Args {
  Workload workload = Workload::kLookup;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_build/perfbench-run";
  std::string outdir = ".bench_build/perfbench-out";  ///< spans
};

/// Sizes and repetition counts; the smoke configuration runs every
/// phase and check on a tiny KB in seconds.
struct Config {
  size_t persons = 50000;
  int boots = 3;         ///< full set-ups, setup_s is their median
  /// Load + Start + health boots; half before the workload's traffic,
  /// half after it, so one short disturbance cannot hit them all.
  int cold_boots = 12;
  double warmup_s = 1.0;
  int check_sample = 12;   ///< answer checks per query class
  int probe_reads = 4000;  ///< card / point probes
  int probe_rows = 150;    ///< scan / agg probes
  int probe_analytics = 24;
  int probe_writes = 400;
  double write_rate = 200;  ///< open-loop write batches per second
  int health_pings = 2000;
  int replay_point = 300, replay_rows = 100, replay_cards = 500;
  int replay_batches = 200;
  int analytics_reps = 3;
  double saturation_s = 1.0;
};

Config MakeConfig(bool smoke) {
  Config c;
  if (!smoke) return c;
  c.persons = 1500;
  c.boots = 1;
  c.cold_boots = 2;
  c.warmup_s = 0.2;
  c.check_sample = 6;
  c.probe_reads = 40;
  c.probe_rows = 12;
  c.probe_analytics = 3;
  c.probe_writes = 20;
  c.health_pings = 100;
  c.replay_point = 30;
  c.replay_rows = 10;
  c.replay_cards = 30;
  c.replay_batches = 20;
  c.analytics_reps = 1;
  c.saturation_s = 0.2;
  return c;
}

/// Every workload serves with the same options; only the leader hook
/// differs, and only on ingest.
kb::server::KbServer::Options ServerOptions(
    kb::replication::ReplicationLog* log) {
  kb::server::KbServer::Options o;
  o.num_workers = 2;
  o.io_threads = 1;
  o.cache_bytes = 8u << 20;
  if (log != nullptr) {
    o.pre_insert_hook = [log](const std::vector<kb::server::WireFact>& b) {
      return log->Append(b);
    };
  }
  return o;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "kb_perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// ----------------------------------------------------------------- stats

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * (v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// (window, value) pairs of one request class.
using Windowed = std::vector<std::pair<int, double>>;

/// A window in which the hypervisor ran other guests on this VM's CPUs
/// for less than this share of the time counts as quiet.
constexpr double kQuietSteal = 0.02;

/// The windows a figure is taken from: of the windows in `present`,
/// the quiet ones, or, when fewer than a quarter are quiet, the quarter
/// (at least one) with the least steal. Steal is time the host took
/// from this program, so a burst of it on the shared host does not set
/// the run's figure; a class measured only in noisy windows still gets
/// one.
std::set<int> QuietWindows(const std::set<int>& present,
                           const std::vector<double>& window_steal) {
  std::vector<int> by_steal(present.begin(), present.end());
  std::stable_sort(by_steal.begin(), by_steal.end(), [&](int a, int b) {
    return window_steal[a] < window_steal[b];
  });
  size_t keep = std::max<size_t>(1, by_steal.size() / 4);
  size_t quiet = 0;
  while (quiet < by_steal.size() && window_steal[by_steal[quiet]] < kQuietSteal) {
    ++quiet;
  }
  keep = std::min(std::max(keep, quiet), by_steal.size());
  return std::set<int>(by_steal.begin(), by_steal.begin() + keep);
}

/// The `q` quantile of the samples of the quiet windows.
double QuietQuantile(const Windowed& samples, double q,
                     const std::vector<double>& window_steal) {
  std::set<int> present;
  for (const auto& [w, v] : samples) present.insert(w);
  const std::set<int> kept = QuietWindows(present, window_steal);
  std::vector<double> values;
  for (const auto& [w, v] : samples) {
    if (kept.count(w)) values.push_back(v);
  }
  return Quantile(values, q);
}

double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}
double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

/// (steal, total) jiffies of the host from /proc/stat.
std::pair<double, double> CpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0;
  for (double x : v) total += x;
  return {v[7], total};
}

/// Share of the CPU time between two CpuJiffies() readings that the
/// host stole.
double StealShare(std::pair<double, double> from, std::pair<double, double> to) {
  return to.second > from.second
             ? (to.first - from.first) / (to.second - from.second)
             : 0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // KiB on Linux: VmHWM
}

// ------------------------------------------------------------------ boot

/// One served volume: world → bulk KB → generation-1 checkpoint →
/// volume load → server. Members are declared in dependency order so
/// the server stops before the KB and log it borrows are freed.
struct Boot {
  std::unique_ptr<kb::corpus::World> world;
  std::unique_ptr<kb::core::KbVolume> volume;
  std::unique_ptr<KnowledgeBase> kb;
  std::unique_ptr<kb::replication::ReplicationLog> log;
  std::unique_ptr<kb::server::KbServer> server;
  std::string dir;
  double generate_s = 0, bulk_load_s = 0, checkpoint_s = 0;
  double load_ms = 0, start_ms = 0, setup_s = 0;
  size_t triples = 0, entities = 0;
  uint64_t snapshot_bytes = 0;
};

std::unique_ptr<Boot> BootOnce(const Args& args, const Config& config,
                               const std::string& dir, int64_t start_ns) {
  auto boot = std::make_unique<Boot>();
  boot->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);

  int64_t t0 = NowNs();
  boot->world = std::make_unique<kb::corpus::World>(kb::corpus::World::Generate(
      ScaledWorldOptions(config.persons, args.seed)));
  int64_t t1 = NowNs();
  auto bulk = std::make_unique<KnowledgeBase>();
  BulkAssert(*boot->world, bulk.get());
  int64_t t2 = NowNs();
  auto volume = kb::core::KbVolume::Open(nullptr, dir + "/volume");
  Check(volume.status(), "volume open");
  boot->volume = std::move(*volume);
  auto gen = boot->volume->Checkpoint(bulk.get());
  Check(gen.status(), "checkpoint");
  if (*gen != 1) Die("first checkpoint is not generation 1");
  int64_t t3 = NowNs();
  bulk.reset();  // the served KB is the one loaded back from the volume
  int64_t t3_load = NowNs();
  auto loaded = boot->volume->Load();
  Check(loaded.status(), "volume load");
  if (!loaded->from_snapshot || loaded->generation != 1) {
    Die("volume did not boot from the generation-1 snapshot");
  }
  boot->kb = std::move(loaded->kb);
  int64_t t4 = NowNs();
  if (args.workload == Workload::kIngest) {
    kb::replication::ReplicationLog::Options log_options;
    auto log = kb::replication::ReplicationLog::Open(log_options, dir + "/repl");
    Check(log.status(), "replication log open");
    boot->log = std::move(*log);
  }
  boot->server = std::make_unique<kb::server::KbServer>(
      boot->kb.get(), ServerOptions(boot->log.get()));
  Check(boot->server->Start(), "server start");
  KbClient client;
  Check(client.Connect(boot->server->port()), "connect");
  Check(client.Health().status(), "first health");
  int64_t t5 = NowNs();

  boot->generate_s = (t1 - t0) / 1e9;
  boot->bulk_load_s = (t2 - t1) / 1e9;
  boot->checkpoint_s = (t3 - t2) / 1e9;
  boot->load_ms = (t4 - t3_load) / 1e6;
  boot->start_ms = (t5 - t4) / 1e6;
  boot->setup_s = (t5 - start_ns) / 1e9;
  boot->triples = boot->kb->NumTriples();
  boot->entities = boot->kb->NumEntities();
  boot->snapshot_bytes = fs::file_size(boot->volume->SnapshotPath(1));
  return boot;
}

struct ColdStart {
  double total_ms = 0, load_ms = 0, start_ms = 0;
};

/// Load + Start + first answered health, on the booted volume.
ColdStart ColdBoot(kb::core::KbVolume* volume) {
  ColdStart c;
  int64_t t0 = NowNs();
  auto loaded = volume->Load();
  Check(loaded.status(), "cold volume load");
  int64_t t1 = NowNs();
  kb::server::KbServer server(loaded->kb.get(), ServerOptions(nullptr));
  Check(server.Start(), "cold server start");
  KbClient client;
  Check(client.Connect(server.port()), "cold connect");
  Check(client.Health().status(), "cold health");
  int64_t t2 = NowNs();
  client.Close();
  server.Stop();
  c.load_ms = (t1 - t0) / 1e6;
  c.start_ms = (t2 - t1) / 1e6;
  c.total_ms = (t2 - t0) / 1e6;
  return c;
}

// ---------------------------------------------------------------- client

/// One completed (or failed) client operation.
struct Sample {
  OpKind kind = OpKind::kCard;
  bool ok = false;
  bool cached = false;
  bool traced = false;
  int64_t start_ns = 0;  ///< send time; for open-loop writes, due time
  int64_t end_ns = 0;
  int64_t late_ns = 0;   ///< open-loop writes: send time − due time
  int window = -1;       ///< measurement window, -1 outside any
  uint64_t span = 0;     ///< traced runs: the request's root span
  int64_t fresh_write = -1;
  std::string text;      ///< the request, kept in traced runs only
};

/// What a client thread did: its samples, spans and CPU time.
struct ClientLog {
  explicit ClientLog(uint32_t log_id) : spans(log_id) {}
  std::vector<Sample> samples;
  SpanLog spans;
  double cpu_s = 0;
  std::vector<std::string> errors;
};

/// "property value" of each fact of a served entity card.
std::set<std::string> CardFacts(const kb::server::Json& card) {
  std::set<std::string> out;
  for (const kb::server::Json& f : card["facts"].items()) {
    out.insert(f.GetString("property") + " " + f.GetString("value"));
  }
  return out;
}

/// The facts of write batch `index` as its entity card shows them.
std::set<std::string> WrittenCardFacts(const Catalog& catalog, uint64_t seed,
                                       uint64_t index) {
  std::set<std::string> out;
  for (const kb::server::WireFact& f : WriteBatch(catalog, seed, index)) {
    out.insert(f.p + " " +
               (f.has_year ? std::to_string(f.year)
                           : kb::rdf::Abbreviate(kb::rdf::EntityIri(f.o))));
  }
  return out;
}

/// Sends one request and checks its answer beyond the round trip:
/// queries meant to do work return rows, no_cache answers are never
/// cached, cards of entities written in this run show exactly their
/// written facts, analytics top-k lists are non-empty.
class Requester {
 public:
  Requester(KbClient* client, const Catalog* catalog, uint64_t seed)
      : client_(client), catalog_(catalog), seed_(seed) {}

  void Issue(const Request& r, Sample* s, std::string* error) {
    s->kind = r.kind;
    s->fresh_write = r.fresh_write;
    s->start_ns = NowNs();
    switch (r.kind) {
      case OpKind::kCard: {
        auto card = client_->EntityCard(r.text);
        s->end_ns = NowNs();
        if (!card.ok()) return Fail(card.status().ToString(), r, error);
        if (r.fresh_write >= 0) {
          if (CardFacts(*card) !=
              WrittenCardFacts(*catalog_, seed_,
                               static_cast<uint64_t>(r.fresh_write))) {
            return Fail("card does not show the written facts", r, error);
          }
        } else if ((*card)["facts"].items().empty()) {
          return Fail("card has no facts", r, error);
        }
        break;
      }
      case OpKind::kPoint:
      case OpKind::kScan:
      case OpKind::kAgg: {
        auto result = client_->Query(r.text, -1, -1, r.no_cache);
        s->end_ns = NowNs();
        if (!result.ok()) return Fail(result.status().ToString(), r, error);
        s->cached = result->cached;
        if (result->rows.empty()) return Fail("empty result", r, error);
        if (r.no_cache && result->cached) {
          return Fail("no_cache answer served from cache", r, error);
        }
        break;
      }
      case OpKind::kAnalytics: {
        auto job = client_->Analytics(r.text, 10, false, r.no_cache);
        s->end_ns = NowNs();
        if (!job.ok()) return Fail(job.status().ToString(), r, error);
        if ((*job)["top"].items().empty()) {
          return Fail("empty top-k", r, error);
        }
        if (r.no_cache && client_->last_response().GetBool("cached")) {
          return Fail("no_cache job served from cache", r, error);
        }
        break;
      }
      case OpKind::kWrite:
      case OpKind::kNumKinds:
        Die("Issue() does not send writes");
    }
    s->ok = true;
  }

  /// Sends write batch `index`; true when every fact was inserted.
  bool Write(uint64_t index, std::string* error) {
    auto batch = WriteBatch(*catalog_, seed_, index);
    auto inserted = client_->InsertFacts(batch);
    if (!inserted.ok()) {
      *error = "write " + std::to_string(index) + ": " +
               inserted.status().ToString();
      return false;
    }
    if (*inserted != static_cast<int64_t>(batch.size())) {
      *error = "write " + std::to_string(index) + " inserted " +
               std::to_string(*inserted) + " facts";
      return false;
    }
    return true;
  }

 private:
  void Fail(const std::string& why, const Request& r, std::string* error) {
    *error = std::string(OpName(r.kind)) + " [" + r.text + "]: " + why;
  }

  KbClient* client_;
  const Catalog* catalog_;
  uint64_t seed_;
};

/// Sends `r` and logs it as a sample of `window`, traced if `traced`.
void IssueLogged(const Request& r, Requester* requester, int window,
                 bool traced, ClientLog* log) {
  Sample s;
  s.window = window;
  s.traced = traced;
  std::string error;
  requester->Issue(r, &s, &error);
  if (!error.empty()) log->errors.push_back(error);
  if (traced) {
    s.span = log->spans.Add(OpName(r.kind), s.start_ns, s.end_ns);
    s.text = r.text;
  }
  log->samples.push_back(std::move(s));
}

/// Drives `gen` closed-loop until `until_ns`. In a traced run, tracing
/// is switched on and off in alternate 250 ms slices, so the run also
/// measures its own overhead.
void ClosedLoop(TrafficGen* gen, Requester* requester, int64_t until_ns,
                bool trace, int window, ClientLog* log) {
  const int64_t origin = NowNs();
  while (NowNs() < until_ns) {
    bool traced = trace && ((NowNs() - origin) / 250'000'000) % 2 == 0;
    IssueLogged(gen->Next(), requester, window, traced, log);
  }
}

/// Open-loop writer: batch i is due at start + (i − first)/rate and is
/// timed from that due time, so a stall charges every batch queued
/// behind it. It sends batches [first, end), or stops early once `stop`
/// (may be null) is set. `acked` advances after each acknowledged
/// batch, in order.
void OpenLoopWriter(Requester* requester, double rate, int64_t start_ns,
                    uint64_t first, uint64_t end, const std::atomic<bool>* stop,
                    std::atomic<uint64_t>* acked, bool trace, ClientLog* log) {
  const double cpu0 = ThreadCpuS();
  std::string error;
  for (uint64_t i = first; i < end; ++i) {
    if (stop != nullptr && stop->load()) break;
    int64_t due = start_ns + static_cast<int64_t>((i - first) * 1e9 / rate);
    int64_t now = NowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    Sample s;
    s.kind = OpKind::kWrite;
    s.start_ns = due;
    s.late_ns = NowNs() - due;
    error.clear();
    s.ok = requester->Write(i, &error);
    s.end_ns = NowNs();
    s.traced = trace;
    if (trace) s.span = log->spans.Add("write", due + s.late_ns, s.end_ns);
    if (!s.ok) log->errors.push_back(error);
    if (s.ok) acked->store(i + 1);
    log->samples.push_back(s);
  }
  log->cpu_s = ThreadCpuS() - cpu0;
}

// ----------------------------------------------------------- answer check

/// Renders in-process rows the way the server does (abbreviated IRIs,
/// literal values, aggregate counts as integers).
std::vector<std::vector<std::string>> RenderRows(
    const KnowledgeBase& kb, const kb::query::SelectQuery& q,
    const std::vector<kb::query::Binding>& rows) {
  std::vector<std::string> columns = q.projection;
  if (q.agg.enabled()) {
    columns = q.agg.group_by;
    columns.push_back(q.agg.out_name.empty() ? "count" : q.agg.out_name);
  } else if (columns.empty() && !rows.empty()) {
    for (const auto& [var, id] : rows.front()) columns.push_back(var);
  }
  const kb::rdf::Dictionary& dict = kb.store().dict();
  std::vector<std::vector<std::string>> out;
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    for (size_t c = 0; c < columns.size(); ++c) {
      auto it = row.find(columns[c]);
      if (it == row.end() || it->second == kb::rdf::kInvalidTermId) {
        cells.push_back("");
      } else if (q.agg.enabled() && c + 1 == columns.size()) {
        cells.push_back(std::to_string(it->second));
      } else {
        const kb::rdf::Term& t = dict.term(it->second);
        cells.push_back(t.is_iri() ? kb::rdf::Abbreviate(t.value())
                                   : t.value());
      }
    }
    out.push_back(std::move(cells));
  }
  return out;
}

/// What differs between a served card and BuildEntityCard's, or "": the
/// name, the types in order, the facts in salience order, the text.
std::string CardMismatch(const kb::server::Json& served,
                         const kb::core::EntityCard& want) {
  if (served.GetString("canonical") != want.canonical ||
      served.GetString("display_name") != want.display_name) {
    return "name differs";
  }
  const auto& types = served["types"].items();
  if (types.size() != want.types.size()) return "types differ";
  for (size_t i = 0; i < types.size(); ++i) {
    if (types[i].as_string() != want.types[i]) return "types differ";
  }
  const auto& facts = served["facts"].items();
  if (facts.size() != want.facts.size()) return "facts differ";
  for (size_t i = 0; i < facts.size(); ++i) {
    if (facts[i].GetString("property") != want.facts[i].property ||
        facts[i].GetString("value") != want.facts[i].value) {
      return "fact " + std::to_string(i) + " differs";
    }
  }
  if (served.GetString("text") != kb::core::RenderEntityCard(want)) {
    return "text differs";
  }
  return "";
}

/// Compares a fixed sample of served answers with in-process
/// KnowledgeBase::Execute (queries) and BuildEntityCard (cards) of the
/// same request, outside any timed phase. Returns failures.
std::vector<std::string> CheckAnswers(KbClient* client,
                                      const KnowledgeBase& kb,
                                      TrafficGen* gen, int per_class,
                                      uint64_t* attempted) {
  std::vector<std::string> failures;
  for (OpKind kind : {OpKind::kPoint, OpKind::kScan, OpKind::kAgg}) {
    for (int i = 0; i < per_class; ++i) {
      Request r = gen->Make(kind);
      ++*attempted;
      auto served = client->Query(r.text, -1, -1, r.no_cache);
      auto parsed = kb.ParseQuery(r.text);
      if (!served.ok() || !parsed.ok()) {
        failures.push_back("check " + r.text + ": request failed");
        continue;
      }
      auto expected = RenderRows(kb, *parsed,
                                 kb.Execute(*parsed, kb::query::ExecutionOptions()));
      auto got = served->rows;
      std::sort(expected.begin(), expected.end());
      std::sort(got.begin(), got.end());
      if (expected.empty() || got != expected) {
        failures.push_back("check " + r.text + ": served " +
                           std::to_string(got.size()) + " rows, expected " +
                           std::to_string(expected.size()));
      }
    }
  }
  for (int i = 0; i < per_class; ++i) {
    Request r = gen->Make(OpKind::kCard);
    ++*attempted;
    auto served = client->EntityCard(r.text);
    auto expected = kb::core::BuildEntityCard(kb, r.text);
    std::string why;
    if (!served.ok() || !expected.ok()) {
      why = "request failed";
    } else if (expected->facts.empty()) {
      why = "no facts";
    } else {
      why = CardMismatch(*served, *expected);
    }
    if (!why.empty()) failures.push_back("check card " + r.text + ": " + why);
  }
  return failures;
}

/// Every acknowledged write must be readable, with exactly its facts.
std::vector<std::string> CheckWrites(KbClient* client, const Catalog& catalog,
                                     uint64_t seed, uint64_t count,
                                     uint64_t* attempted) {
  std::vector<std::string> failures;
  for (uint64_t i = 0; i < count; ++i) {
    ++*attempted;
    const std::string subject = FreshEntity(seed, i);
    auto result = client->Query("SELECT ?p ?o WHERE { <" +
                                    kb::rdf::EntityIri(subject) +
                                    "> ?p ?o . }",
                                -1, -1, true);
    std::set<std::string> got, want;
    if (result.ok()) {
      for (const auto& row : result->rows) got.insert(row[0] + " " + row[1]);
    }
    for (const auto& f : WriteBatch(catalog, seed, i)) {
      want.insert(kb::rdf::Abbreviate(kb::rdf::PropertyIri(f.p)) + " " +
                  (f.has_year ? std::to_string(f.year)
                              : kb::rdf::Abbreviate(kb::rdf::EntityIri(f.o))));
    }
    if (got != want) {
      failures.push_back("acknowledged write " + subject + " reads back " +
                         std::to_string(got.size()) + " of " +
                         std::to_string(want.size()) + " facts");
    }
  }
  return failures;
}

// ----------------------------------------------------------- layer trace
//
// The traced run replays sampled requests through each layer's public
// functions, from this file, with the request's client span as parent.
// The server is idle by then, so replays see the served KB alone.

/// Traced, successful samples of one class across `logs`, at most `n`.
std::vector<const Sample*> TracedSamples(
    const std::vector<const ClientLog*>& logs, OpKind kind, size_t n,
    bool uncached_only) {
  std::vector<const Sample*> out;
  for (const ClientLog* log : logs) {
    for (const Sample& s : log->samples) {
      if (out.size() >= n) return out;
      if (s.kind != kind || !s.ok || !s.traced) continue;
      if (uncached_only && s.cached) continue;
      if (s.kind == OpKind::kCard && s.fresh_write >= 0) continue;
      out.push_back(&s);
    }
  }
  return out;
}

struct QueryLayer {
  double parse_us = 0, execute_us = 0, rows = 0, shape_us = 0, bytes = 0;
};

/// Parse and execute replays of uncached served queries; what is left
/// of the client round trip after the transport floor, parse and
/// execute is result shaping (render, encode, decode).
QueryLayer ReplayQueries(const KnowledgeBase& kb, KbClient* client,
                         const std::vector<const Sample*>& samples,
                         double health_us, SpanLog* spans) {
  std::vector<double> parse, execute, rows, shape, bytes;
  for (const Sample* s : samples) {
    int64_t t0 = NowNs();
    auto parsed = kb.ParseQuery(s->text);
    int64_t t1 = NowNs();
    if (!parsed.ok()) Die("replay parse: " + parsed.status().ToString());
    auto result = kb.Execute(*parsed, kb::query::ExecutionOptions());
    int64_t t2 = NowNs();
    spans->Add("query.parse", t0, t1, s->span, s->span);
    spans->Add("query.execute", t1, t2, s->span, s->span);
    parse.push_back((t1 - t0) / 1e3);
    execute.push_back((t2 - t1) / 1e3);
    rows.push_back(static_cast<double>(result.size()));
    double self_us = (s->end_ns - s->start_ns) / 1e3 - parse.back() -
                     execute.back();
    shape.push_back(self_us - health_us);
  }
  // Response size: one more uncached round trip for a few samples.
  for (size_t i = 0; i < samples.size() && i < 50; ++i) {
    if (client->Query(samples[i]->text, -1, -1, true).ok()) {
      bytes.push_back(static_cast<double>(
          client->last_response().Dump().size()));
    }
  }
  return {Median(parse), Median(execute), Median(rows), Median(shape),
          Median(bytes)};
}

double ReplayCards(const KnowledgeBase& kb,
                   const std::vector<const Sample*>& samples, SpanLog* spans) {
  std::vector<double> us;
  for (const Sample* s : samples) {
    int64_t t0 = NowNs();
    auto card = kb::core::BuildEntityCard(kb, s->text);
    if (!card.ok()) Die("replay card: " + card.status().ToString());
    std::string text = kb::core::RenderEntityCard(*card);
    int64_t t1 = NowNs();
    if (text.empty()) Die("replay card: empty rendering");
    spans->Add("core.entity_card", t0, t1, s->span, s->span);
    us.push_back((t1 - t0) / 1e3);
  }
  return Median(us);
}

/// Replays write batches through KnowledgeBase::AssertFact on a scratch
/// KB loaded from the same volume, and through ReplicationLog::Append
/// into a scratch log. Returns {µs per asserted fact, ms per append}.
/// Appends are children of the served write only where the server is a
/// leader (`leader`); elsewhere they are roots.
std::pair<double, double> ReplayWrites(kb::core::KbVolume* volume,
                                       const Catalog& catalog, uint64_t seed,
                                       const std::vector<const Sample*>& writes,
                                       int batches, bool leader,
                                       const std::string& dir, SpanLog* spans) {
  auto loaded = volume->Load();
  Check(loaded.status(), "scratch volume load");
  KnowledgeBase& scratch = *loaded->kb;
  kb::replication::ReplicationLog::Options log_options;
  auto log = kb::replication::ReplicationLog::Open(log_options, dir);
  Check(log.status(), "scratch replication log");
  std::vector<double> assert_us, append_ms;
  for (int i = 0; i < batches; ++i) {
    uint64_t parent = static_cast<size_t>(i) < writes.size() ? writes[i]->span
                                                             : 0;
    auto batch = WriteBatch(catalog, seed, static_cast<uint64_t>(i));
    int64_t t0 = NowNs();
    for (const kb::server::WireFact& f : batch) {
      kb::core::FactMeta meta;
      if (f.has_year) {
        scratch.AssertYearFact(f.s, f.p, f.year, meta);
      } else {
        scratch.AssertFact(f.s, f.p, f.o, meta);
      }
    }
    int64_t t1 = NowNs();
    Check((*log)->Append(batch), "scratch append");
    int64_t t2 = NowNs();
    spans->Add("core.assert", t0, t1, parent, parent);
    spans->Add("replication.append", t1, t2, leader ? parent : 0,
               leader ? parent : 0);
    assert_us.push_back((t1 - t0) / 1e3 / batch.size());
    append_ms.push_back((t2 - t1) / 1e6);
  }
  return {Median(assert_us), Median(append_ms)};
}

struct AnalyticsLayer {
  double pagerank_serial_ms = 0, pagerank_pool_ms = 0, class_stats_ms = 0;
};

/// The server's two analytics jobs, called directly with the options
/// the analytics endpoint uses; PageRank serially and on a pool sized
/// like the server's analytics pool.
AnalyticsLayer ReplayAnalytics(const KnowledgeBase& kb, int reps,
                               int pool_threads, SpanLog* spans) {
  const kb::rdf::Dictionary& dict = kb.store().dict();
  auto id = [&](std::string_view iri) {
    return dict.Lookup(kb::rdf::Term::Iri(std::string(iri)));
  };
  kb::analytics::PageRankOptions pr;
  pr.iri_objects_only = &dict;
  for (std::string_view iri : {kb::rdf::kRdfType, kb::rdf::kRdfsSubClassOf,
                               kb::rdf::kRdfsLabel, kb::rdf::kOwlSameAs}) {
    if (id(iri) != kb::rdf::kInvalidTermId) {
      pr.exclude_predicates.push_back(id(iri));
    }
  }
  kb::analytics::ClassStatsOptions cs;
  cs.type_predicate = id(kb::rdf::kRdfType);
  cs.subclass_predicate = id(kb::rdf::kRdfsSubClassOf);
  kb::ThreadPool pool(static_cast<size_t>(pool_threads));
  std::vector<double> serial, pooled, stats;
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNs();
    auto a = kb::analytics::ComputePageRank(kb.store(), pr, nullptr);
    int64_t t1 = NowNs();
    auto b = kb::analytics::ComputePageRank(kb.store(), pr, &pool);
    int64_t t2 = NowNs();
    auto c = kb::analytics::ComputeClassStats(kb.store(), cs, &pool);
    int64_t t3 = NowNs();
    if (a.nodes.empty() || a.nodes != b.nodes || c.counts.empty()) {
      Die("analytics replay: empty result, or serial and pooled PageRank "
          "ranked different graphs");
    }
    spans->Add("analytics.pagerank_serial", t0, t1);
    spans->Add("analytics.pagerank_pool", t1, t2);
    spans->Add("analytics.class_stats", t2, t3);
    serial.push_back((t1 - t0) / 1e6);
    pooled.push_back((t2 - t1) / 1e6);
    stats.push_back((t3 - t2) / 1e6);
  }
  return {Median(serial), Median(pooled), Median(stats)};
}

/// Two closed-loop clients of the workload's read mix: the completed
/// rate when the server, not one client's round trip, is the limit.
/// Failed requests are appended to `failures`.
double SaturationOpsPerS(int port, const Catalog& catalog, const Args& args,
                         const std::atomic<uint64_t>* acked, double seconds,
                         uint64_t* attempted,
                         std::vector<std::string>* failures) {
  std::atomic<uint64_t> done{0}, tried{0};
  std::mutex failures_mu;
  const int64_t until = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const int64_t start = NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      KbClient client;
      std::string error;
      if (Status st = client.Connect(port); !st.ok()) error = st.ToString();
      TrafficGen gen(&catalog, args.workload, args.seed, 10 + c, acked);
      Requester requester(&client, &catalog, args.seed);
      while (error.empty() && NowNs() < until) {
        Sample s;
        tried.fetch_add(1);
        requester.Issue(gen.Next(), &s, &error);
        if (s.ok) done.fetch_add(1);
      }
      if (!error.empty()) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures->push_back("saturation: " + error);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  *attempted += tried.load();
  return done.load() / ((NowNs() - start) / 1e9);
}

// ---------------------------------------------------------------- output

struct Metric {
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc() || !std::isfinite(v)) return "0";
  return std::string(buf, end);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<std::pair<std::string, Metric>>& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + m[i].first + "\": {\"value\": " + Num(m[i].second.value) +
           ", \"unit\": \"" + m[i].second.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------------ main

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--outdir") {
      args->outdir = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0;
}

int Run(const Args& args, int64_t process_start_ns) {
  const Config config = MakeConfig(args.smoke);
  const std::string run_dir = args.workdir + "/" +
                              WorkloadName(args.workload) + "-" +
                              std::to_string(::getpid());
  uint64_t attempted = 0;
  std::vector<std::string> failures;

  // ---- Set-up, several times; the last boot is served.
  std::unique_ptr<Boot> boot;
  std::vector<double> setup_s, generate_s, bulk_s, checkpoint_s;
  for (int b = 0; b < config.boots; ++b) {
    if (boot != nullptr) {  // free the previous boot before the next
      const std::string dir = boot->dir;
      boot.reset();
      fs::remove_all(dir);
    }
    int64_t start = b == 0 ? process_start_ns : NowNs();
    boot = BootOnce(args, config, run_dir + "/boot" + std::to_string(b), start);
    setup_s.push_back(boot->setup_s);
    generate_s.push_back(boot->generate_s);
    bulk_s.push_back(boot->bulk_load_s);
    checkpoint_s.push_back(boot->checkpoint_s);
    std::fprintf(stderr,
                 "boot %d: %.3f s (generate %.3f, bulk %.3f, checkpoint "
                 "%.3f, load %.1f ms, start %.1f ms)\n",
                 b, boot->setup_s, boot->generate_s, boot->bulk_load_s,
                 boot->checkpoint_s, boot->load_ms, boot->start_ms);
  }
  std::vector<double> cold_ms, cold_load_ms, cold_start_ms;
  auto cold_boots = [&](int n) {
    for (int b = 0; b < n; ++b) {
      ColdStart c = ColdBoot(boot->volume.get());
      cold_ms.push_back(c.total_ms);
      cold_load_ms.push_back(c.load_ms);
      cold_start_ms.push_back(c.start_ms);
    }
  };
  cold_boots(config.cold_boots / 2);

  KnowledgeBase& kb = *boot->kb;
  const Catalog catalog = BuildCatalog(*boot->world, args.seed);
  const int port = boot->server->port();
  std::printf("workload %s seed %llu: %zu triples, %zu entities, %llu "
              "snapshot bytes\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), boot->triples,
              boot->entities,
              static_cast<unsigned long long>(boot->snapshot_bytes));

  KbClient reader_client, writer_client;
  Check(reader_client.Connect(port), "connect reader");
  Check(writer_client.Connect(port), "connect writer");
  std::atomic<uint64_t> acked{0};
  const bool ingest = args.workload == Workload::kIngest;
  TrafficGen gen(&catalog, args.workload, args.seed, 1,
                 ingest ? &acked : nullptr);
  Requester reader(&reader_client, &catalog, args.seed);
  Requester writer(&writer_client, &catalog, args.seed);

  // ---- Warm-up: fills the result and plan caches; not timed.
  {
    ClientLog warm(9);
    ClosedLoop(&gen, &reader,
               NowNs() + static_cast<int64_t>(config.warmup_s * 1e9), false,
               -1, &warm);
    attempted += warm.samples.size();
    failures.insert(failures.end(), warm.errors.begin(), warm.errors.end());
  }

  // ---- Answer checks on a fixed sample, outside the timed phase.
  {
    TrafficGen check_gen(&catalog, args.workload, args.seed, 2,
                         nullptr);
    auto bad = CheckAnswers(&reader_client, kb, &check_gen,
                            config.check_sample, &attempted);
    failures.insert(failures.end(), bad.begin(), bad.end());
  }

  // Health round trips: the transport and hand-off floor.
  std::vector<double> health_us;
  if (args.trace) {
    for (int i = 0; i < config.health_pings; ++i) {
      int64_t t0 = NowNs();
      Check(reader_client.Health().status(), "health");
      health_us.push_back((NowNs() - t0) / 1e3);
    }
  }

  // ---- Probe schedule: the read classes outside this workload's mix,
  // interleaved evenly. Writes outside the mix are probed after the
  // timed phase, because a write empties the result cache.
  const std::set<OpKind> in_mix = MixKinds(args.workload);
  std::vector<OpKind> schedule;
  {
    std::vector<std::pair<double, OpKind>> placed;
    for (auto [kind, n] : {std::pair{OpKind::kCard, config.probe_reads},
                           std::pair{OpKind::kPoint, config.probe_reads},
                           std::pair{OpKind::kScan, config.probe_rows},
                           std::pair{OpKind::kAgg, config.probe_rows},
                           std::pair{OpKind::kAnalytics,
                                     config.probe_analytics}}) {
      if (in_mix.count(kind)) continue;
      for (int i = 0; i < n; ++i) placed.push_back({(i + 0.5) / n, kind});
    }
    std::stable_sort(placed.begin(), placed.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& p : placed) schedule.push_back(p.second);
  }

  // ---- Timed phase: `windows` slices of the workload's mix of about a
  // second each. After each slice the same client sends that window's
  // share of the probe schedule, so every class's samples are spread
  // over the whole phase. Window w is slice w plus its probe share; the
  // host's steal share is recorded for each window.
  const int windows = std::max(1, static_cast<int>(std::lround(args.seconds)));
  const int64_t slice_ns = static_cast<int64_t>(args.seconds * 1e9 / windows);
  ClientLog reads(1), writes(2), probes(3);
  std::vector<int64_t> window_start;
  std::vector<double> slice_s, window_steal;
  TrafficGen probe_gen(&catalog, args.workload, args.seed, 3, nullptr);
  const auto phase_jiffies = CpuJiffies();
  const double proc_cpu0 = ProcessCpuS();
  const double reader_cpu0 = ThreadCpuS();
  const int64_t phase_start = NowNs();
  std::atomic<bool> stop_writer{false};
  std::thread writer_thread;
  if (ingest) {
    writer_thread = std::thread([&] {
      OpenLoopWriter(&writer, config.write_rate, phase_start, 0, UINT64_MAX,
                     &stop_writer, &acked, args.trace, &writes);
    });
  }
  for (int w = 0; w < windows; ++w) {
    const auto jiffies = CpuJiffies();
    window_start.push_back(NowNs());
    ClosedLoop(&gen, &reader, window_start.back() + slice_ns, args.trace, w,
               &reads);
    slice_s.push_back((NowNs() - window_start.back()) / 1e9);
    for (size_t i = schedule.size() * w / windows;
         i < schedule.size() * (w + 1) / windows; ++i) {
      IssueLogged(probe_gen.Make(schedule[i]), &reader, w, args.trace,
                  &probes);
    }
    window_steal.push_back(StealShare(jiffies, CpuJiffies()));
  }
  stop_writer = true;
  if (writer_thread.joinable()) writer_thread.join();
  const double reader_cpu = ThreadCpuS() - reader_cpu0;
  const double proc_cpu = ProcessCpuS() - proc_cpu0;
  const double steal_share = StealShare(phase_jiffies, CpuJiffies());
  // A write belongs to the window it completed in (the first window if
  // it completed before that window opened).
  for (Sample& s : writes.samples) {
    s.window = std::max<int>(
        0, static_cast<int>(std::upper_bound(window_start.begin(),
                                             window_start.end(), s.end_ns) -
                            window_start.begin()) - 1);
  }
  const uint64_t timed_ops =
      reads.samples.size() + writes.samples.size() + probes.samples.size();

  // ---- Write probe, where writes are outside the mix, in windows of
  // one second of the open-loop schedule, after the windows above.
  ClientLog write_probe(5);
  if (!in_mix.count(OpKind::kWrite)) {
    const uint64_t per_window = static_cast<uint64_t>(config.write_rate);
    const uint64_t batches = static_cast<uint64_t>(config.probe_writes);
    for (uint64_t first = 0; first < batches; first += per_window) {
      const auto jiffies = CpuJiffies();
      const size_t before = write_probe.samples.size();
      OpenLoopWriter(&writer, config.write_rate, NowNs(), first,
                     std::min(first + per_window, batches), nullptr, &acked,
                     args.trace, &write_probe);
      for (size_t i = before; i < write_probe.samples.size(); ++i) {
        write_probe.samples[i].window = static_cast<int>(window_steal.size());
      }
      window_steal.push_back(StealShare(jiffies, CpuJiffies()));
    }
  }
  for (const ClientLog* log : {&reads, &writes, &probes, &write_probe}) {
    attempted += log->samples.size();
    failures.insert(failures.end(), log->errors.begin(), log->errors.end());
  }

  cold_boots(config.cold_boots - config.cold_boots / 2);

  // ---- Every acknowledged write reads back with its facts.
  {
    auto bad = CheckWrites(&reader_client, catalog, args.seed, acked.load(),
                           &attempted);
    failures.insert(failures.end(), bad.begin(), bad.end());
  }

  // ---- Latency of a class over the quiet windows: from the timed
  // phase's mix where the class is in it, else from its probe.
  const std::vector<const ClientLog*> logs = {&reads, &writes, &probes,
                                              &write_probe};
  auto p50_ms = [&](OpKind kind) {
    Windowed v;
    for (const ClientLog* log : logs) {
      for (const Sample& s : log->samples) {
        if (s.kind == kind && s.ok) {
          v.push_back({s.window, (s.end_ns - s.start_ns) / 1e6});
        }
      }
    }
    return QuietQuantile(v, 0.5, window_steal);
  };
  // Closed-loop throughput of the mix over the quiet slices.
  std::set<int> all_slices;
  for (int w = 0; w < windows; ++w) all_slices.insert(w);
  const std::set<int> quiet_slices = QuietWindows(all_slices, window_steal);
  double quiet_reads = 0, quiet_s = 0;
  for (const Sample& s : reads.samples) quiet_reads += quiet_slices.count(s.window);
  for (int w : quiet_slices) quiet_s += slice_s[w];
  const double ops_per_s = quiet_reads / quiet_s;
  std::vector<double> late_ms, write_ms;
  for (const ClientLog* log : {&writes, &write_probe}) {
    for (const Sample& s : log->samples) {
      late_ms.push_back(s.late_ns / 1e6);
      if (s.ok) write_ms.push_back((s.end_ns - s.start_ns) / 1e6);
    }
  }
  const double write_late_p99_ms = Quantile(late_ms, 0.99);
  std::vector<std::pair<std::string, Metric>> metrics;
  auto put = [&metrics](const std::string& name, double v, const char* unit) {
    metrics.push_back({name, Metric{v, unit}});
  };
  if (!args.trace) {
    Windowed closed_reads_ms;
    for (const Sample& s : reads.samples) {
      if (s.ok) {
        closed_reads_ms.push_back({s.window, (s.end_ns - s.start_ns) / 1e6});
      }
    }
    put("setup_s", Median(setup_s), "s");
    put("cold_start_ms", Median(cold_ms), "ms");
    put("peak_rss_mb", PeakRssMiB(), "MiB");
    put("snapshot_bytes_per_triple",
        static_cast<double>(boot->snapshot_bytes) / boot->triples, "B/triple");
    put("ops_per_s", ops_per_s, "ops/s");
    put("card_p50_ms", p50_ms(OpKind::kCard), "ms");
    put("point_p50_ms", p50_ms(OpKind::kPoint), "ms");
    put("read_p99_ms", QuietQuantile(closed_reads_ms, 0.99, window_steal),
        "ms");
    put("scan_p50_ms", p50_ms(OpKind::kScan), "ms");
    put("agg_p50_ms", p50_ms(OpKind::kAgg), "ms");
    put("analytics_p50_ms", p50_ms(OpKind::kAnalytics), "ms");
    put("write_p50_ms", p50_ms(OpKind::kWrite), "ms");
  } else {
    SpanLog replay(4);
    const double health = Median(health_us);
    put("corpus.generate_s", Median(generate_s), "s");
    put("core.bulk_load_s", Median(bulk_s), "s");
    put("core.checkpoint_s", Median(checkpoint_s), "s");
    put("core.volume_load_ms", Median(cold_load_ms), "ms");
    put("server.start_ms", Median(cold_start_ms), "ms");
    put("rdf.kb_triples", static_cast<double>(boot->triples), "count");
    put("rdf.kb_entities", static_cast<double>(boot->entities), "count");
    put("rdf.snapshot_bytes", static_cast<double>(boot->snapshot_bytes),
        "bytes");
    put("server.health_rtt_us", health, "us");
    // Share of the mix's queries the server executed rather than
    // answered from its result cache (1 − hit ratio).
    double queries = 0, executed = 0;
    for (const Sample& s : reads.samples) {
      if (IsQuery(s.kind) && s.ok) {
        ++queries;
        if (!s.cached) ++executed;
      }
    }
    put("server.cache_miss_ratio", queries > 0 ? executed / queries : 1,
        "ratio");
    const double client_cpu = reader_cpu + writes.cpu_s;
    put("server.cpu_us_per_op", (proc_cpu - client_cpu) / timed_ops * 1e6,
        "us");
    put("client.cpu_us_per_op", client_cpu / timed_ops * 1e6, "us");
    for (OpKind kind : {OpKind::kPoint, OpKind::kScan, OpKind::kAgg}) {
      size_t n = kind == OpKind::kPoint ? config.replay_point
                                        : config.replay_rows;
      QueryLayer q = ReplayQueries(kb, &reader_client,
                                   TracedSamples(logs, kind, n, true), health,
                                   &replay);
      const std::string op = OpName(kind);
      put("query.parse_us." + op, q.parse_us, "us");
      put("query.execute_us." + op, q.execute_us, "us");
      put("query.rows." + op, q.rows, "count");
      put("server.shape_us." + op, q.shape_us, "us");
      put("server.response_bytes." + op, q.bytes, "bytes");
    }
    put("core.entity_card_us",
        ReplayCards(kb, TracedSamples(logs, OpKind::kCard, config.replay_cards,
                                      false),
                    &replay),
        "us");
    auto [assert_us, append_ms] = ReplayWrites(
        boot->volume.get(), catalog, args.seed,
        TracedSamples(logs, OpKind::kWrite, config.replay_batches, false),
        config.replay_batches, ingest, run_dir + "/replay-repl", &replay);
    put("core.assert_us_per_fact", assert_us, "us");
    put("replication.log_append_ms", append_ms, "ms");
    AnalyticsLayer a = ReplayAnalytics(kb, config.analytics_reps,
                                       ServerOptions(nullptr).num_workers,
                                       &replay);
    put("analytics.pagerank_serial_ms", a.pagerank_serial_ms, "ms");
    put("analytics.pagerank_pool_ms", a.pagerank_pool_ms, "ms");
    put("analytics.class_stats_ms", a.class_stats_ms, "ms");
    put("loadgen.write_late_ms", write_late_p99_ms, "ms");
    put("loadgen.write_p99_ms", Quantile(write_ms, 0.99), "ms");
    put("server.saturation_ops_per_s",
        SaturationOpsPerS(port, catalog, args, &acked, config.saturation_s,
                          &attempted, &failures),
        "ops/s");
    // Tracing overhead: the median read in traced slices over the
    // median read in untraced ones.
    std::vector<double> on_us, off_us;
    for (const Sample& s : reads.samples) {
      if (s.ok) (s.traced ? on_us : off_us).push_back((s.end_ns - s.start_ns) / 1e3);
    }
    put("trace.overhead_ratio", Median(on_us) / Median(off_us), "ratio");

    std::vector<Span> spans;
    const SpanLog* span_logs[] = {&reads.spans, &writes.spans, &probes.spans,
                                  &write_probe.spans, &replay};
    for (const SpanLog* log : span_logs) {
      spans.insert(spans.end(), log->spans().begin(), log->spans().end());
    }
    put("trace.spans", static_cast<double>(spans.size()), "count");
    fs::create_directories(args.outdir);
    const std::string stem =
        args.outdir + "/" + std::string(WorkloadName(args.workload));
    if (!WriteSpans(stem + "-spans.tsv", spans)) Die("cannot write spans");
    std::FILE* self = std::fopen((stem + "-selftime.tsv").c_str(), "w");
    if (self == nullptr) Die("cannot write self times");
    std::fprintf(self, "name\tcount\ttotal_us\tself_us\n");
    std::printf("self time per span (mean µs): ");
    for (const auto& [name, t] : ComputeSelfTimes(spans)) {
      std::fprintf(self, "%s\t%llu\t%.1f\t%.1f\n", name.c_str(),
                   static_cast<unsigned long long>(t.count), t.total_us,
                   t.self_us);
      std::printf("%s %.1f; ", name.c_str(), t.self_us / t.count);
    }
    std::printf("\n");
    std::fclose(self);
  }

  // ---- Teardown: stop the server before its KB and log go away.
  reader_client.Close();
  writer_client.Close();
  boot->server->Stop();

  const uint64_t failed = failures.size();
  for (size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::fprintf(stderr, "FAIL: %s\n", failures[i].c_str());
  }
  const bool correct = failed == 0;
  std::printf("ops %llu, failed %llu, error_ratio %.6f; noise: "
              "host.steal_share %.4f, quiet slices %zu of %d, writer "
              "lateness p99 %.3f ms\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              steal_share, quiet_slices.size(), windows, write_late_p99_ms);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  boot.reset();
  fs::remove_all(run_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t start_ns = perfbench::NowNs();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload lookup|report|ingest [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--workdir DIR] "
                 "[--outdir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args, start_ns);
}
