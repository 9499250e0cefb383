// Serving-layer tests: protocol framing, endpoint semantics, the
// result cache's epoch invalidation, admission control, deadlines, and
// a malformed-input fuzz pass. The concurrency tests drive one server
// from many client threads and are meant to run under TSan/ASan (the
// `serving` CI job), where the sanitizer is the oracle.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kb_snapshot.h"
#include "core/knowledge_base.h"
#include "server/json.h"
#include "server/kb_client.h"
#include "server/kb_server.h"
#include "server/protocol.h"
#include "util/metrics_registry.h"

namespace kb {
namespace server {
namespace {

/// A small deterministic KB: three people at two companies, typed and
/// labeled, plus founding years.
core::KnowledgeBase MakeKb() {
  core::KnowledgeBase kb;
  kb.AssertSubclass("company", "organization");
  kb.AssertSubclass("person", "agent");
  for (const char* company : {"Acme_Corp", "Globex"}) {
    kb.AssertType(company, "company");
  }
  kb.AssertLabel("Acme_Corp", "Acme Corp", "en");
  kb.AssertYearFact("Acme_Corp", "foundedIn", 1947, {});
  core::FactMeta meta;
  meta.confidence = 0.9;
  kb.AssertType("Ada_Smith", "person");
  kb.AssertFact("Ada_Smith", "worksFor", "Acme_Corp", meta);
  kb.AssertType("Ben_Jones", "person");
  kb.AssertFact("Ben_Jones", "worksFor", "Acme_Corp", meta);
  kb.AssertType("Cleo_Ray", "person");
  kb.AssertFact("Cleo_Ray", "worksFor", "Globex", meta);
  return kb;
}

std::string WorksForQuery(const std::string& company) {
  return "SELECT ?p WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> <" +
         rdf::EntityIri(company) + "> . }";
}

/// Server + KB bundle with ephemeral port.
struct TestServer {
  explicit TestServer(KbServer::Options options = {})
      : kb(MakeKb()), server(&kb, options) {
    Status status = server.Start();
    EXPECT_TRUE(status.ok()) << status;
  }
  ~TestServer() { server.Stop(); }

  KbClient Connect() {
    KbClient client;
    Status status = client.Connect(server.port());
    EXPECT_TRUE(status.ok()) << status;
    return client;
  }

  core::KnowledgeBase kb;
  KbServer server;
};

/// Raw connected socket for speaking deliberately broken protocol.
int RawConnect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

// ------------------------------------------------------------ endpoints

TEST(KbServerTest, HealthReportsKbShape) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->GetBool("healthy"));
  EXPECT_EQ(health->GetNumber("triples"), ts.kb.NumTriples());
  EXPECT_GT(health->GetNumber("epoch"), 0);
}

TEST(KbServerTest, QueryReturnsBoundRows) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto result = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->cached);
  ASSERT_EQ(result->columns, std::vector<std::string>{"p"});
  ASSERT_EQ(result->rows.size(), 2u);
  std::vector<std::string> people;
  for (const auto& row : result->rows) people.push_back(row[0]);
  EXPECT_NE(std::find(people.begin(), people.end(), "kb:Ada_Smith"),
            people.end());
  EXPECT_NE(std::find(people.begin(), people.end(), "kb:Ben_Jones"),
            people.end());
}

TEST(KbServerTest, RepeatedQueryHitsCacheWithIdenticalRows) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto cold = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->cached);
  auto warm = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cached);
  // The spliced cached envelope must decode to the same result.
  EXPECT_EQ(warm->columns, cold->columns);
  EXPECT_EQ(warm->rows, cold->rows);
}

TEST(KbServerTest, NoCacheFlagBypassesCache) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Query(WorksForQuery("Acme_Corp")).ok());
  auto again = client.Query(WorksForQuery("Acme_Corp"), -1, -1,
                            /*no_cache=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cached);
}

TEST(KbServerTest, EntityCardRendersFacts) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto card = client.EntityCard("Acme_Corp");
  ASSERT_TRUE(card.ok()) << card.status();
  EXPECT_EQ(card->GetString("canonical"), "Acme_Corp");
  EXPECT_EQ(card->GetString("display_name"), "Acme Corp");
  EXPECT_FALSE((*card)["facts"].items().empty());
  auto missing = client.EntityCard("Nobody_Here");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(KbServerTest, MetricsEndpointExposesRegistrySnapshot) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Health().ok());
  auto text = client.MetricsText();
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("server.requests"), std::string::npos);
}

// ------------------------------------------- write path + invalidation

TEST(KbServerTest, ReadAfterWriteSeesNewFactDespiteCache) {
  TestServer ts;
  KbClient client = ts.Connect();
  // Warm the cache with the pre-write result.
  auto cold = client.Query(WorksForQuery("Globex"));
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->rows.size(), 1u);
  ASSERT_TRUE(client.Query(WorksForQuery("Globex"))->cached);

  WireFact fact;
  fact.s = "Dee_Flynn";
  fact.p = "worksFor";
  fact.o = "Globex";
  auto inserted = client.InsertFacts({fact});
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(*inserted, 1);

  // The write bumped the epoch, so the cached pre-write entry must not
  // be served: the very next read sees the new fact.
  auto fresh = client.Query(WorksForQuery("Globex"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cached);
  ASSERT_EQ(fresh->rows.size(), 2u);
  std::vector<std::string> people;
  for (const auto& row : fresh->rows) people.push_back(row[0]);
  EXPECT_NE(std::find(people.begin(), people.end(), "kb:Dee_Flynn"),
            people.end());
  // And the post-write result is cacheable under the new epoch.
  EXPECT_TRUE(client.Query(WorksForQuery("Globex"))->cached);
}

TEST(KbServerTest, InsertFactsSkipsMalformedEntries) {
  TestServer ts;
  KbClient client = ts.Connect();
  Json request = Json::Object();
  request.Set("op", Json::Str("insert_facts"));
  Json facts = Json::Array();
  Json good = Json::Object();
  good.Set("s", Json::Str("Eve_Gray"));
  good.Set("p", Json::Str("worksFor"));
  good.Set("o", Json::Str("Acme_Corp"));
  facts.Append(std::move(good));
  Json bad = Json::Object();
  bad.Set("s", Json::Str("NoPredicate"));
  facts.Append(std::move(bad));
  facts.Append(Json::Str("not even an object"));
  request.Set("facts", std::move(facts));
  auto response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->GetNumber("inserted"), 1);
  EXPECT_EQ(response->GetNumber("skipped"), 2);
}

// --------------------------------------------------- deadlines + caps

TEST(KbServerTest, ExpiredDeadlineReturnsPartialFreeError) {
  TestServer ts;
  KbClient client = ts.Connect();
  // deadline_ms = 0 expires before the first row is pulled, so this is
  // deterministic however fast the query is.
  auto result = client.Query(WorksForQuery("Acme_Corp"), /*deadline_ms=*/0);
  EXPECT_TRUE(result.status().IsDeadlineExceeded()) << result.status();
  // The error is partial-free: a retry without deadline sees full rows.
  auto retry = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->rows.size(), 2u);
}

TEST(KbServerTest, DeadlineErrorIsNeverCached) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Query(WorksForQuery("Acme_Corp"), 0).status()
                  .IsDeadlineExceeded());
  auto after = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cached);  // the failed attempt cached nothing
  EXPECT_EQ(after->rows.size(), 2u);
}

TEST(KbServerTest, MaxRowsTruncatesWithoutPoisoningCache) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto capped = client.Query(WorksForQuery("Acme_Corp"), -1, /*max_rows=*/1);
  ASSERT_TRUE(capped.ok()) << capped.status();
  EXPECT_TRUE(capped->truncated);
  EXPECT_EQ(capped->rows.size(), 1u);
  // A different row cap is a different cache key, and truncated
  // results are never cached, so the full query still sees all rows.
  auto full = client.Query(WorksForQuery("Acme_Corp"));
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(full->truncated);
  EXPECT_EQ(full->rows.size(), 2u);
}

TEST(KbServerTest, ExactlyMaxRowsIsNotTruncated) {
  // The Acme query has exactly 2 rows: a cap of 2 cuts nothing, so the
  // result is complete — not flagged truncated, and cacheable.
  TestServer ts;
  KbClient client = ts.Connect();
  auto first = client.Query(WorksForQuery("Acme_Corp"), -1, /*max_rows=*/2);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->rows.size(), 2u);
  EXPECT_FALSE(first->truncated);
  EXPECT_FALSE(first->cached);
  auto again = client.Query(WorksForQuery("Acme_Corp"), -1, /*max_rows=*/2);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->rows.size(), 2u);
  EXPECT_FALSE(again->truncated);
  EXPECT_TRUE(again->cached);
}

TEST(KbServerTest, OutOfRangeNumericFieldsAreBadRequests) {
  TestServer ts;
  KbClient client = ts.Connect();
  auto request = [](const std::string& op, const std::string& field,
                    double value) {
    Json r = Json::Object();
    r.Set("op", Json::Str(op));
    r.Set("sparql", Json::Str(WorksForQuery("Acme_Corp")));
    r.Set("entity", Json::Str("Acme_Corp"));
    r.Set("job", Json::Str("pagerank"));
    r.Set(field, Json::Number(value));
    return r;
  };
  auto expect_bad = [&](const std::string& op, const std::string& field,
                        double value) {
    Status status = client.Call(request(op, field, value)).status();
    EXPECT_TRUE(status.IsInvalidArgument())
        << op << " " << field << "=" << value << ": " << status;
    EXPECT_NE(status.message().find(field), std::string::npos) << status;
  };
  for (double value : {1e300, -1e300, 2.5}) {
    expect_bad("query", "deadline_ms", value);
    expect_bad("query", "max_rows", value);
    expect_bad("query", "min_epoch", value);
    expect_bad("entity_card", "max_facts", value);
    expect_bad("analytics", "top_k", value);
    expect_bad("analytics", "iterations", value);
    expect_bad("analytics", "damping", value);
  }
  expect_bad("query", "min_epoch", -1);
  expect_bad("analytics", "iterations", 0);
  expect_bad("analytics", "iterations", -5);
  expect_bad("analytics", "damping", -0.01);
  expect_bad("analytics", "damping", 1.0000001);

  // Dampings keep their exact value in the analytics cache key: one
  // that rounds to the same six decimals is a different job, not a hit.
  auto near = client.Call(request("analytics", "damping", 0.85));
  ASSERT_TRUE(near.ok()) << near.status();
  auto nearer = client.Call(request("analytics", "damping", 0.8500001));
  ASSERT_TRUE(nearer.ok()) << nearer.status();
  EXPECT_FALSE(nearer->GetBool("cached"));
  auto repeat = client.Call(request("analytics", "damping", 0.8500001));
  ASSERT_TRUE(repeat.ok()) << repeat.status();
  EXPECT_TRUE(repeat->GetBool("cached"));
  for (double edge : {0.0, 1.0}) {
    auto bound = client.Call(request("analytics", "damping", edge));
    EXPECT_TRUE(bound.ok()) << "damping=" << edge << ": " << bound.status();
  }

  // In-range values keep their meaning: a negative deadline is none and
  // a non-positive top_k is the default.
  auto no_deadline = client.Call(request("query", "deadline_ms", -1));
  ASSERT_TRUE(no_deadline.ok()) << no_deadline.status();
  EXPECT_EQ(no_deadline->GetNumber("row_count"), 2);
  auto pagerank = client.Call(request("analytics", "top_k", -3));
  ASSERT_TRUE(pagerank.ok()) << pagerank.status();
  EXPECT_GT(pagerank->GetNumber("iterations"), 0);
  EXPECT_GT((*pagerank)["top"].items().size(), 0u);

  // A bad per-fact number skips that fact, like any malformed fact.
  Json insert = Json::Object();
  insert.Set("op", Json::Str("insert_facts"));
  Json facts = Json::Array();
  auto fact = [](const std::string& field, double value) {
    Json f = Json::Object();
    f.Set("s", Json::Str("Eve_Gray"));
    f.Set("p", Json::Str("worksFor"));
    f.Set("o", Json::Str("Globex"));
    f.Set(field, Json::Number(value));
    return f;
  };
  facts.Append(fact("year", 1e300));
  facts.Append(fact("support", -1));
  facts.Append(fact("extractor", 0.5));
  facts.Append(fact("support", 3));
  insert.Set("facts", std::move(facts));
  auto inserted = client.Call(insert);
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(inserted->GetNumber("inserted"), 1);
  EXPECT_EQ(inserted->GetNumber("skipped"), 3);
}

// ---------------------------------------------------- admission control

TEST(KbServerTest, QueueFullConnectionsAreShedWithRetryHint) {
  KbServer::Options options;
  options.num_workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 7;
  TestServer ts(options);

  // Occupy the single worker: one full round-trip guarantees the
  // worker has dequeued this connection and is parked reading it.
  KbClient busy = ts.Connect();
  ASSERT_TRUE(busy.Health().ok());
  // Fill the queue with an admitted-but-unserved connection.
  KbClient queued;
  ASSERT_TRUE(queued.Connect(ts.server.port()).ok());
  // Give the acceptor a moment to enqueue it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Now the queue is full: further connections must be rejected
  // promptly with the overload envelope, not left hanging.
  uint64_t rejected_before =
      MetricsRegistry::Default().Snapshot().counter("server.rejected");
  KbClient shed;
  ASSERT_TRUE(shed.Connect(ts.server.port()).ok());
  auto result = shed.Health();
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  EXPECT_EQ(shed.retry_after_ms(), 7);
  EXPECT_FALSE(shed.connected());  // shed connections are closed
  EXPECT_GT(MetricsRegistry::Default().Snapshot().counter("server.rejected"),
            rejected_before);

  // The admitted clients still work once the worker frees up.
  EXPECT_TRUE(busy.Health().ok());
}

// -------------------------------------------------------- malformed input

TEST(KbServerFuzzTest, OversizedLengthPrefixIsRejectedNotTrusted) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  // Claim a 4 GiB frame; the server must refuse to allocate it.
  unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, header, 4, 0), 4);
  std::string response;
  Status status = ReadFrame(fd, &response);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(response.find("bad_frame"), std::string::npos);
  ::close(fd);
  // Server survives.
  EXPECT_TRUE(ts.Connect().Health().ok());
}

TEST(KbServerFuzzTest, TruncatedJsonGetsErrorAndConnectionSurvives) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  ASSERT_TRUE(WriteFrame(fd, "{\"op\":\"health\",").ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("bad_request"), std::string::npos);
  // Framing was intact, so the connection stays usable.
  ASSERT_TRUE(WriteFrame(fd, "{\"op\":\"health\"}").ok());
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"healthy\":true"), std::string::npos);
  ::close(fd);
}

TEST(KbServerFuzzTest, UnknownEndpointIsAnErrorNotACrash) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  ASSERT_TRUE(WriteFrame(fd, "{\"op\":\"drop_all_tables\"}").ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("unknown_endpoint"), std::string::npos);
  ::close(fd);
}

TEST(KbServerFuzzTest, GarbageAndTornFramesNeverKillTheServer) {
  TestServer ts;
  const std::vector<std::string> raw_payloads = {
      std::string("\x00\x00\x00\x05nope", 9),     // frame, garbage JSON
      std::string("\x00\x00\x00\x10{\"op\":", 11),  // torn frame, then close
      std::string("\x00\x00\x00\x00", 4),          // zero-length frame
      std::string("junkjunkjunkjunk"),              // huge bogus prefix
      std::string("\x7f", 1),                      // torn header
  };
  for (const std::string& raw : raw_payloads) {
    int fd = RawConnect(ts.server.port());
    ASSERT_EQ(::send(fd, raw.data(), raw.size(), 0),
              static_cast<ssize_t>(raw.size()));
    ::close(fd);  // hang up however the server was mid-parse
  }
  // Deep JSON nesting must hit the parser's depth limit, not the stack.
  std::string deep(2000, '[');
  deep += std::string(2000, ']');
  int fd = RawConnect(ts.server.port());
  ASSERT_TRUE(WriteFrame(fd, deep).ok());
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("bad_request"), std::string::npos);
  ::close(fd);
  EXPECT_TRUE(ts.Connect().Health().ok());
}

// ------------------------------------------------------------ concurrency

TEST(KbServerConcurrencyTest, EightClientThreadsMixedWorkload) {
  KbServer::Options options;
  options.num_workers = 8;
  options.queue_depth = 64;
  TestServer ts(options);
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 40;
  std::atomic<int> ok_count{0};
  std::atomic<int> unavailable{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KbClient client;
      if (!client.Connect(ts.server.port()).ok()) return;
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Status status;
        switch ((t + i) % 4) {
          case 0:
            status = client.Query(WorksForQuery("Acme_Corp")).status();
            break;
          case 1:
            status = client.EntityCard("Acme_Corp").status();
            break;
          case 2: {
            WireFact fact;
            fact.s = "Writer_" + std::to_string(t);
            fact.p = "worksFor";
            fact.o = (i % 2) == 0 ? "Acme_Corp" : "Globex";
            fact.support = 1;
            status = client.InsertFacts({fact}).status();
            break;
          }
          default:
            status = client.Health().status();
        }
        if (status.ok()) {
          ok_count.fetch_add(1);
        } else if (status.IsUnavailable()) {
          // Admission control may shed under this burst; back off and
          // reconnect as the protocol intends.
          unavailable.fetch_add(1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(client.retry_after_ms()));
          if (!client.Connect(ts.server.port()).ok()) return;
        } else {
          ADD_FAILURE() << "unexpected status: " << status;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok_count.load(), kThreads * kRequestsPerThread / 2);
  // Every writer thread's facts are queryable afterwards.
  KbClient client = ts.Connect();
  auto result = client.Query(WorksForQuery("Acme_Corp"), -1, -1,
                             /*no_cache=*/true);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->rows.size(), 2u);
}

TEST(KbServerConcurrencyTest, StopWhileClientsAreConnectedIsClean) {
  auto ts = std::make_unique<TestServer>();
  std::vector<KbClient> clients(4);
  for (auto& client : clients) {
    ASSERT_TRUE(client.Connect(ts->server.port()).ok());
    ASSERT_TRUE(client.Health().ok());
  }
  // Destroys the server with workers parked mid-read on live
  // connections; Stop() must unblock and join them all.
  ts.reset();
  for (auto& client : clients) {
    EXPECT_FALSE(client.Health().ok());  // connection was shut down
  }
}


// --------------------------------------------------- client-side retry

TEST(KbClientRetryTest, RetryAbsorbsOverloadShedsHonoringHint) {
  // A raw fake server: shed the first two connections with an
  // overloaded envelope carrying a retry_after_ms hint, then serve a
  // real health response — fully deterministic overload.
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 8), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);

  constexpr int kHintMs = 40;
  std::thread fake([listen_fd] {
    for (int conn = 0; conn < 3; ++conn) {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      std::string payload;
      if (!ReadFrame(fd, &payload).ok()) {
        ::close(fd);
        continue;
      }
      Json response = Json::Object();
      if (conn < 2) {
        response.Set("status", Json::Str("overloaded"));
        response.Set("error", Json::Str("overloaded"));
        response.Set("retry_after_ms", Json::Number(kHintMs));
        WriteFrame(fd, response.Dump());
        ::close(fd);  // sheds drop the connection, like the real server
      } else {
        response.Set("status", Json::Str("ok"));
        response.Set("healthy", Json::Bool(true));
        WriteFrame(fd, response.Dump());
        ::close(fd);
      }
    }
  });

  ClientOptions options;
  options.retry_unavailable = true;
  options.retry.max_attempts = 4;
  options.retry.base_backoff_ms = 1;  // the hint must dominate
  KbClient client(options);
  ASSERT_TRUE(client.Connect(port).ok());
  auto start = std::chrono::steady_clock::now();
  auto health = client.Health();
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(health.ok()) << health.status();
  // Two sheds, each with a kHintMs hint the sleep must not undercut.
  EXPECT_GE(elapsed.count(), 2.0 * kHintMs);

  fake.join();
  ::close(listen_fd);
}

TEST(KbClientRetryTest, WithoutOptInShedsSurfaceImmediately) {
  KbServer::Options options;
  options.num_workers = 1;
  options.queue_depth = 1;
  options.retry_after_ms = 9;
  TestServer ts(options);
  KbClient busy = ts.Connect();
  ASSERT_TRUE(busy.Health().ok());
  KbClient queued;
  ASSERT_TRUE(queued.Connect(ts.server.port()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  KbClient plain;  // default options: no retry
  ASSERT_TRUE(plain.Connect(ts.server.port()).ok());
  auto result = plain.Health();
  EXPECT_TRUE(result.status().IsUnavailable()) << result.status();
  EXPECT_EQ(plain.retry_after_ms(), 9);
}

// ------------------------------------------------------- graceful drain

TEST(KbServerDrainTest, DrainStopsAcceptingAndFinishesInFlight) {
  auto ts = std::make_unique<TestServer>();
  const int port = ts->server.port();
  KbClient client = ts->Connect();
  ASSERT_TRUE(client.Health().ok());
  client.Close();  // no connections left: drain should be instant

  auto start = std::chrono::steady_clock::now();
  ts->server.Drain(/*timeout_ms=*/2000);
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(elapsed.count(), 1000.0) << "drain of an idle server dawdled";

  // Fully stopped: new connections are refused outright.
  KbClient late;
  EXPECT_FALSE(late.Connect(port).ok());
}

TEST(KbServerDrainTest, DrainTimeoutBoundsIdleConnections) {
  auto ts = std::make_unique<TestServer>();
  // An idle persistent connection holds no in-flight request; drain
  // waits for it only up to the timeout, then force-stops.
  KbClient idle = ts->Connect();
  ASSERT_TRUE(idle.Health().ok());
  // Let the worker re-enter its blocking read: if drain flips the flag
  // while the worker is still between response and read, it closes the
  // connection at the loop-top check and drain returns instantly.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto start = std::chrono::steady_clock::now();
  ts->server.Drain(/*timeout_ms=*/100);
  auto elapsed = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 90.0);
  EXPECT_LT(elapsed.count(), 2000.0);
  EXPECT_FALSE(idle.Health().ok());  // connection was shut down
}

// ------------------------------------------------ event core / pipelining

/// Wire framing for raw-socket tests: 4-byte big-endian length prefix.
std::string Framed(const std::string& payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out;
  out.push_back(static_cast<char>((len >> 24) & 0xff));
  out.push_back(static_cast<char>((len >> 16) & 0xff));
  out.push_back(static_cast<char>((len >> 8) & 0xff));
  out.push_back(static_cast<char>(len & 0xff));
  out += payload;
  return out;
}

TEST(KbServerPipelineTest, ByteDribbledFramesParseAcrossArbitrarySplits) {
  TestServer ts;
  int fd = RawConnect(ts.server.port());
  // Two pipelined requests delivered one byte at a time: the server's
  // incremental parser must reassemble frames across every possible
  // read boundary, including headers torn mid-length.
  std::string stream =
      Framed("{\"op\":\"health\"}") + Framed("{\"op\":\"metrics\"}");
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(::send(fd, stream.data() + i, 1, 0), 1);
    if (i % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"healthy\":true"), std::string::npos);
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("server.requests"), std::string::npos);
  ::close(fd);
}

TEST(KbServerPipelineTest, PipelinedFramesAnswerStrictlyInOrder) {
  KbServer::Options options;
  options.num_workers = 4;  // workers race; the flush order must not
  options.queue_depth = 64;  // hold the whole burst without shedding
  TestServer ts(options);
  const auto before = MetricsRegistry::Default().Snapshot();
  int fd = RawConnect(ts.server.port());
  // Each request's op name is its schedule position, and the error
  // response echoes it back — so response order proves sequencing.
  constexpr int kFrames = 32;
  std::string stream;
  for (int i = 0; i < kFrames; ++i) {
    stream += Framed("{\"op\":\"probe_" + std::to_string(i) + "\"}");
  }
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));
  for (int i = 0; i < kFrames; ++i) {
    std::string response;
    ASSERT_TRUE(ReadFrame(fd, &response).ok()) << "frame " << i;
    EXPECT_NE(response.find("no such op: probe_" + std::to_string(i)),
              std::string::npos)
        << "out-of-order response at " << i << ": " << response;
  }
  const auto after = MetricsRegistry::Default().Snapshot();
  EXPECT_GT(after.counter("server.pipelined_frames"),
            before.counter("server.pipelined_frames"));
  EXPECT_GT(after.counter("server.epoll_wakeups"),
            before.counter("server.epoll_wakeups"));
  EXPECT_GE(after.gauge("server.open_connections"), 1);
  ::close(fd);
}

TEST(KbServerEventCoreTest, RequestShedWhenQueueFullClosesAfterHint) {
  KbServer::Options options;
  options.queue_depth = 0;  // every request sheds at admission
  options.retry_after_ms = 7;
  TestServer ts(options);
  int fd = RawConnect(ts.server.port());
  // Pipeline three requests: the first one's shed response carries the
  // hint and closes the connection, dropping the two behind it.
  std::string stream;
  for (int i = 0; i < 3; ++i) stream += Framed("{\"op\":\"health\"}");
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), 0),
            static_cast<ssize_t>(stream.size()));
  std::string response;
  ASSERT_TRUE(ReadFrame(fd, &response).ok());
  EXPECT_NE(response.find("\"status\":\"overloaded\""), std::string::npos);
  EXPECT_NE(response.find("\"retry_after_ms\":7"), std::string::npos);
  Status eof = ReadFrame(fd, &response);
  EXPECT_TRUE(eof.IsAborted()) << eof;  // clean close, no more frames
  ::close(fd);
}

TEST(KbServerEventCoreTest, ConnectionCapShedsExcessAccepts) {
  KbServer::Options options;
  options.max_connections = 2;
  options.retry_after_ms = 9;
  TestServer ts(options);
  KbClient a = ts.Connect();
  ASSERT_TRUE(a.Health().ok());
  KbClient b = ts.Connect();
  ASSERT_TRUE(b.Health().ok());

  KbClient c;
  ASSERT_TRUE(c.Connect(ts.server.port()).ok());  // TCP-level accept
  auto shed = c.Health();
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_EQ(c.retry_after_ms(), 9);

  // Capacity frees once an admitted connection goes away.
  a.Close();
  bool readmitted = false;
  for (int i = 0; i < 200 && !readmitted; ++i) {
    KbClient d;
    readmitted = d.Connect(ts.server.port()).ok() && d.Health().ok();
    if (!readmitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(readmitted);
}

TEST(KbServerEventCoreTest, IdleConnectionsAreReapedAndKeepAliveRecovers) {
  KbServer::Options options;
  options.idle_timeout_ms = 60;
  TestServer ts(options);
  const uint64_t reaped_before =
      MetricsRegistry::Default().Snapshot().counter("server.idle_closed");

  // Without the opt-in, the reap surfaces as a typed ConnectionClosed —
  // not IOError — so callers can tell "reconnect" from "torn read".
  KbClient bare;
  ASSERT_TRUE(bare.Connect(ts.server.port()).ok());
  ASSERT_TRUE(bare.Health().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  auto closed = bare.Health();
  ASSERT_FALSE(closed.ok());
  EXPECT_TRUE(closed.status().IsConnectionClosed()) << closed.status();
  EXPECT_GT(MetricsRegistry::Default().Snapshot().counter(
                "server.idle_closed"),
            reaped_before);

  // With reconnect_on_close the same sequence just works.
  ClientOptions keep_alive;
  keep_alive.reconnect_on_close = true;
  KbClient client(keep_alive);
  ASSERT_TRUE(client.Connect(ts.server.port()).ok());
  ASSERT_TRUE(client.Health().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(client.Health().ok());
}

// ------------------------------------------------------------ analytics

TEST(KbServerAnalyticsTest, PageRankAndClassStatsRunOverTheWire) {
  TestServer ts;
  KbClient client = ts.Connect();

  auto pagerank = client.Analytics("pagerank");
  ASSERT_TRUE(pagerank.ok()) << pagerank.status();
  EXPECT_FALSE(pagerank->GetBool("cached"));
  // worksFor contributes the only entity->entity edges (type/subclass/
  // label are excluded, foundedIn's literal object is filtered).
  EXPECT_EQ(pagerank->GetNumber("edges"), 3);
  EXPECT_GT(pagerank->GetNumber("nodes"), 0);
  ASSERT_GT((*pagerank)["top"].items().size(), 0u);
  // Acme has two in-links, every other node at most one.
  EXPECT_EQ((*pagerank)["top"].items()[0].GetString("entity"),
            "kb:Acme_Corp");

  auto stats = client.Analytics("class_stats");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->GetNumber("entities"), 5);  // 3 people + 2 companies
  // person, company, and their superclasses agent, organization.
  EXPECT_EQ(stats->GetNumber("classes"), 4);
  bool agent_rolled_up = false;
  for (const Json& entry : (*stats)["top"].items()) {
    if (entry.GetString("class") == "kbc:agent") {
      agent_rolled_up = entry.GetNumber("count") == 3;
    }
  }
  EXPECT_TRUE(agent_rolled_up);

  auto bad = client.Analytics("centrality");
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(KbServerAnalyticsTest, ResultIsCachedUntilAWriteLands) {
  TestServer ts;
  KbClient client = ts.Connect();
  ASSERT_TRUE(client.Analytics("pagerank").ok());
  auto warm = client.Analytics("pagerank");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->GetBool("cached"));
  // Different job shape: separate entry, not a collision.
  auto other_k = client.Analytics("pagerank", /*top_k=*/3);
  ASSERT_TRUE(other_k.ok());
  EXPECT_FALSE(other_k->GetBool("cached"));
  // no_cache bypasses.
  auto bypass = client.Analytics("pagerank", 0, false, /*no_cache=*/true);
  ASSERT_TRUE(bypass.ok());
  EXPECT_FALSE(bypass->GetBool("cached"));

  WireFact fact;
  fact.s = "Dee_Flynn";
  fact.p = "worksFor";
  fact.o = "Globex";
  ASSERT_TRUE(client.InsertFacts({fact}).ok());

  // Read-after-write: the insert bumped the epoch, so the pre-write
  // analytics entry must not be served — and the fresh run sees the
  // new edge.
  auto fresh = client.Analytics("pagerank");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->GetBool("cached"));
  EXPECT_EQ(fresh->GetNumber("edges"), 4);
}

TEST(KbServerAnalyticsTest, InsertBackMakesScoresQueryable) {
  TestServer ts;
  KbClient client = ts.Connect();
  uint64_t epoch_before = ts.kb.epoch();
  auto run = client.Analytics("pagerank", /*top_k=*/2, /*insert=*/true);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->GetNumber("inserted"), 2);
  EXPECT_GT(ts.kb.epoch(), epoch_before);

  // The materialized scores are ordinary facts: SPARQL finds them.
  auto rows = client.Query("SELECT ?e WHERE { ?e <" +
                           rdf::PropertyIri("pagerankScore") + "> ?s . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 2u);

  // An inserting run mutates the KB, so it must never be served from
  // the cache even when repeated back-to-back.
  auto again = client.Analytics("pagerank", 2, true);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->GetBool("cached"));

  // read_only followers reject the mutation.
  KbServer::Options follower_options;
  follower_options.read_only = true;
  TestServer follower(follower_options);
  KbClient fclient = follower.Connect();
  auto denied = fclient.Analytics("pagerank", 2, true);
  EXPECT_TRUE(denied.status().IsUnavailable());
  EXPECT_TRUE(fclient.Analytics("pagerank").ok());
}

TEST(KbServerAnalyticsTest, AggregateQueriesFlowThroughCacheAndEpochs) {
  TestServer ts;
  KbClient client = ts.Connect();
  const std::string agg_sparql =
      "SELECT ?c (COUNT(?p) AS ?n) WHERE { ?p <" +
      rdf::PropertyIri("worksFor") + "> ?c . } GROUP BY ?c";

  auto cold = client.Query(agg_sparql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->columns, (std::vector<std::string>{"c", "n"}));
  ASSERT_EQ(cold->rows.size(), 2u);
  std::map<std::string, std::string> counts;
  for (const auto& row : cold->rows) counts[row[0]] = row[1];
  EXPECT_EQ(counts["kb:Acme_Corp"], "2");
  EXPECT_EQ(counts["kb:Globex"], "1");
  EXPECT_TRUE(client.Query(agg_sparql)->cached);

  // Insert invalidates the cached aggregate; the next read recounts.
  WireFact fact;
  fact.s = "Dee_Flynn";
  fact.p = "worksFor";
  fact.o = "Globex";
  ASSERT_TRUE(client.InsertFacts({fact}).ok());
  auto fresh = client.Query(agg_sparql);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cached);
  counts.clear();
  for (const auto& row : fresh->rows) counts[row[0]] = row[1];
  EXPECT_EQ(counts["kb:Globex"], "2");
}

TEST(KbServerAnalyticsTest, AggregateShapesGetDistinctCacheEntries) {
  // Regression: a plain query, its aggregate, and two top-k variants
  // share a WHERE clause — none may collide in the result cache.
  TestServer ts;
  KbClient client = ts.Connect();
  const std::string where =
      " WHERE { ?p <" + rdf::PropertyIri("worksFor") + "> ?c . }";
  const std::string plain = "SELECT ?c" + where;
  const std::string agg =
      "SELECT ?c (COUNT(?p) AS ?n)" + where + " GROUP BY ?c";
  const std::string top1 = agg + " ORDER BY DESC(?n) LIMIT 1";
  const std::string top2 = agg + " ORDER BY DESC(?n) LIMIT 2";

  ASSERT_TRUE(client.Query(plain).ok());
  auto agg_cold = client.Query(agg);
  ASSERT_TRUE(agg_cold.ok());
  EXPECT_FALSE(agg_cold->cached);  // plain's entry must not be served
  EXPECT_EQ(agg_cold->rows.size(), 2u);

  auto top1_cold = client.Query(top1);
  ASSERT_TRUE(top1_cold.ok());
  EXPECT_FALSE(top1_cold->cached);  // differs from the un-k'd aggregate
  ASSERT_EQ(top1_cold->rows.size(), 1u);
  EXPECT_EQ(top1_cold->rows[0][0], "kb:Acme_Corp");

  auto top2_cold = client.Query(top2);
  ASSERT_TRUE(top2_cold.ok());
  EXPECT_FALSE(top2_cold->cached);  // k is part of the key
  EXPECT_EQ(top2_cold->rows.size(), 2u);

  // Each shape is individually cached under its own key.
  EXPECT_TRUE(client.Query(plain)->cached);
  EXPECT_TRUE(client.Query(agg)->cached);
  EXPECT_TRUE(client.Query(top1)->cached);
  EXPECT_TRUE(client.Query(top2)->cached);
}

// ----------------------------------------------------------- checkpoint

TEST(KbServerCheckpointTest, CheckpointUnderConcurrentReadsIsSafe) {
  // The serve_main background checkpointer in miniature: queries and
  // inserts in flight while WithWriteLock + KbVolume::Checkpoint
  // move-assigns the KB. The shared lock held across the whole read
  // path is what makes this safe; TSan is the oracle for the rest.
  std::string dir = (std::filesystem::temp_directory_path() /
                     "kbforge_server_ckpt")
                        .string();
  std::filesystem::remove_all(dir);
  auto volume = core::KbVolume::Open(nullptr, dir);
  ASSERT_TRUE(volume.ok()) << volume.status();

  TestServer ts;
  ASSERT_TRUE((*volume)->SaveDelta(ts.kb).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&, i] {
      KbClient client = ts.Connect();
      int n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        bool no_cache = (++n + i) % 2 == 0;
        auto result =
            client.Query(WorksForQuery("Acme_Corp"), -1, -1, no_cache);
        if (!result.ok() || result->rows.size() < 2) {
          failures.fetch_add(1);
        }
      }
    });
  }

  KbClient writer = ts.Connect();
  uint64_t last_generation = 0;
  for (int round = 0; round < 3; ++round) {
    WireFact fact;
    fact.s = "Churner_" + std::to_string(round);
    fact.p = "worksFor";
    fact.o = "Acme_Corp";
    ASSERT_TRUE(writer.InsertFacts({fact}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ts.server.WithWriteLock([&] {
      auto generation = (*volume)->Checkpoint(&ts.kb);
      ASSERT_TRUE(generation.ok()) << generation.status();
      EXPECT_GT(*generation, last_generation);
      last_generation = *generation;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The checkpointed volume reboots to the post-insert state.
  auto loaded = (*volume)->Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->generation, last_generation);
  EXPECT_EQ(loaded->kb->NumTriples(), ts.kb.NumTriples());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace server
}  // namespace kb
