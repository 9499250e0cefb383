#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/bloom_filter.h"
#include "util/lru_cache.h"
#include "util/date.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/metrics_registry.h"
#include "util/random.h"
#include "util/retry.h"
#include "util/slice.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/varint.h"
#include "util/io_util.h"

#include <errno.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

namespace kb {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fails = [] { return Status::Corruption("bad"); };
  auto wrapper = [&]() -> Status {
    KB_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsCorruption());
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::InvalidArgument("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.value_or(7), 7);
  EXPECT_TRUE(v.status().IsInvalidArgument());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 5);
}

// ---------------------------------------------------------------- Slice

TEST(SliceTest, CompareOrdersLexicographically) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);  // prefix sorts first
}

TEST(SliceTest, StartsWithAndRemovePrefix) {
  Slice s("hello world");
  EXPECT_TRUE(s.starts_with(Slice("hello")));
  s.remove_prefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsRuns) {
  auto parts = SplitWhitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(ReplaceAll("abc", "x", "y"), "abc");
}

TEST(StringUtilTest, ParseInt64RejectsGarbage) {
  long long v = 0;
  EXPECT_TRUE(ParseInt64("-123", &v));
  EXPECT_EQ(v, -123);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, NTriplesEscapeRoundTrip) {
  std::string nasty = "line\nwith \"quotes\" and \\slashes\\ and\ttabs";
  EXPECT_EQ(UnescapeNTriples(EscapeNTriples(nasty)), nasty);
}

TEST(StringUtilTest, SingularizeHandlesCommonShapes) {
  EXPECT_EQ(Singularize("singers"), "singer");
  EXPECT_EQ(Singularize("cities"), "city");
  EXPECT_EQ(Singularize("people"), "person");
  EXPECT_EQ(Singularize("companies"), "company");
  EXPECT_EQ(Singularize("glass"), "glass");  // not a plural
}

TEST(StringUtilTest, PluralizeInvertsSingularize) {
  for (const char* w : {"singer", "city", "person", "company", "film"}) {
    EXPECT_EQ(Singularize(Pluralize(w)), w) << w;
  }
}

TEST(StringUtilTest, LooksPlural) {
  EXPECT_TRUE(LooksPlural("singers"));
  EXPECT_TRUE(LooksPlural("people"));
  EXPECT_FALSE(LooksPlural("glass"));
  EXPECT_FALSE(LooksPlural("status"));
}

// ---------------------------------------------------------------- Varint

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ULL << 32) - 1, 1ULL << 32,
                                  UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice input(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&input, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(input.empty());
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  Slice input(buf.data(), buf.size() - 1);
  uint64_t got;
  EXPECT_FALSE(GetVarint64(&input, &got));
}

TEST(VarintTest, FixedRoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefULL);
  Slice input(buf);
  uint32_t a;
  uint64_t b;
  ASSERT_TRUE(GetFixed32(&input, &a));
  ASSERT_TRUE(GetFixed64(&input, &b));
  EXPECT_EQ(a, 0xdeadbeefu);
  EXPECT_EQ(b, 0x0123456789abcdefULL);
}

TEST(VarintTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("hello"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice input(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &b));
  EXPECT_EQ(a.ToString(), "hello");
  EXPECT_TRUE(b.empty());
}

TEST(VarintTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 1ULL << 62}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

// ---------------------------------------------------------------- Hash

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(Hash64("knowledge"), Hash64("knowledge"));
  EXPECT_NE(Hash64("knowledge"), Hash64("knowledgf"));
}

TEST(HashTest, Mix64Avalanches) {
  // Flipping one input bit should flip roughly half the output bits.
  uint64_t base = Mix64(0x1234);
  uint64_t flipped = Mix64(0x1235);
  int diff = __builtin_popcountll(base ^ flipped);
  EXPECT_GT(diff, 16);
  EXPECT_LT(diff, 48);
}

// ---------------------------------------------------------------- Bloom

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key" + std::to_string(i));
  for (const auto& k : keys) builder.AddKey(Slice(k));
  std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));
  for (const auto& k : keys) {
    EXPECT_TRUE(reader.MayContain(Slice(k))) << k;
  }
}

TEST(BloomFilterTest, FalsePositiveRateIsLow) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 2000; ++i) {
    std::string k = "present" + std::to_string(i);
    builder.AddKey(Slice(k));
  }
  std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));
  int false_positives = 0;
  const int kProbes = 10000;
  for (int i = 0; i < kProbes; ++i) {
    std::string k = "absent" + std::to_string(i);
    if (reader.MayContain(Slice(k))) ++false_positives;
  }
  // 10 bits/key should be ~1%; allow generous slack.
  EXPECT_LT(false_positives, kProbes / 25);
}

TEST(BloomFilterTest, EmptyFilterIsSafe) {
  BloomFilterBuilder builder(10);
  std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));
  // No keys: any answer is allowed, but it must not crash.
  reader.MayContain(Slice("x"));
}

// ---------------------------------------------------------------- Arena

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena;
  char* a = arena.Allocate(100);
  char* b = arena.Allocate(100);
  memset(a, 0xaa, 100);
  memset(b, 0xbb, 100);
  EXPECT_EQ(static_cast<unsigned char>(a[50]), 0xaa);
  EXPECT_EQ(static_cast<unsigned char>(b[50]), 0xbb);
}

TEST(ArenaTest, AlignedAllocationIsAligned) {
  Arena arena;
  arena.Allocate(1);  // misalign the bump pointer
  char* p = arena.AllocateAligned(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t), 0u);
}

TEST(ArenaTest, LargeAllocationsWork) {
  Arena arena;
  char* p = arena.Allocate(1 << 20);
  memset(p, 1, 1 << 20);
  EXPECT_GE(arena.MemoryUsage(), 1u << 20);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(1000), b.Uniform(1000));
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
    int64_t w = rng.UniformInt(-5, 5);
    EXPECT_GE(w, -5);
    EXPECT_LE(w, 5);
  }
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(5);
  size_t low = 0, total = 20000;
  for (size_t i = 0; i < total; ++i) {
    if (rng.Zipf(1000, 1.0) < 10) ++low;
  }
  // Under uniformity low ranks would get ~1%; Zipf gives far more.
  EXPECT_GT(low, total / 20);
}

TEST(RngTest, WeightedChoiceFollowsWeights) {
  Rng rng(7);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.WeightedChoice(weights)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[2], counts[0] * 5);
}

// ---------------------------------------------------------------- Dates

TEST(DateTest, ToStringRespectsGranularity) {
  EXPECT_EQ((Date{1955, 0, 0}).ToString(), "1955");
  EXPECT_EQ((Date{1955, 2, 0}).ToString(), "1955-02");
  EXPECT_EQ((Date{1955, 2, 24}).ToString(), "1955-02-24");
}

TEST(DateTest, Ordering) {
  EXPECT_LT((Date{1990, 1, 1}), (Date{1990, 1, 2}));
  EXPECT_LT((Date{1989, 12, 31}), (Date{1990, 1, 1}));
}

TEST(DateTest, MonthNames) {
  EXPECT_EQ(MonthName(2), "February");
  EXPECT_EQ(MonthByName("february"), 2);
  EXPECT_EQ(MonthByName("Smarch"), 0);
}

TEST(TimeSpanTest, OverlapLogic) {
  TimeSpan a{{1970, 0, 0}, {1980, 0, 0}};
  TimeSpan b{{1979, 0, 0}, {1990, 0, 0}};
  TimeSpan c{{1981, 0, 0}, {1990, 0, 0}};
  EXPECT_TRUE(a.Overlaps(b));
  EXPECT_FALSE(a.Overlaps(c));
  TimeSpan open{{1975, 0, 0}, {}};
  EXPECT_TRUE(open.Overlaps(c));
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, PrecisionRecallF1) {
  PrecisionRecall pr;
  pr.AddTP(8);
  pr.AddFP(2);
  pr.AddFN(8);
  EXPECT_DOUBLE_EQ(pr.precision(), 0.8);
  EXPECT_DOUBLE_EQ(pr.recall(), 0.5);
  EXPECT_NEAR(pr.f1(), 2 * 0.8 * 0.5 / 1.3, 1e-12);
}

TEST(MetricsTest, EmptyIsZeroNotNan) {
  PrecisionRecall pr;
  EXPECT_EQ(pr.precision(), 0.0);
  EXPECT_EQ(pr.recall(), 0.0);
  EXPECT_EQ(pr.f1(), 0.0);
}


// ---------------------------------------------------------------- Checks

TEST(LoggingTest, CheckFailureAborts) {
  EXPECT_DEATH({ KB_CHECK(1 == 2) << "impossible"; }, "Check failed");
}

TEST(LoggingTest, CheckOkPassesThrough) {
  KB_CHECK(true) << "never evaluated";
  KB_CHECK_OK(Status::OK());
}

TEST(LoggingTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(KB_CHECK_OK(Status::Corruption("boom")), "boom");
}

TEST(LoggingTest, LogLevelFiltering) {
  LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  KB_LOG(Info) << "suppressed";  // must not crash, just be filtered
  SetLogLevel(saved);
}

// ---------------------------------------------------------------- Pool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, WaitIsReentrant) {
  ThreadPool pool(2);
  pool.Wait();  // nothing queued
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroTasksReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&ran](size_t) { ran = true; });
  EXPECT_FALSE(ran);
  pool.Wait();
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(4);
  for (int i = 0; i < 16; ++i) {
    pool.Submit([i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
    });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The exception slot is cleared: subsequent rounds work normally.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100,
                       [](size_t i) {
                         if (i == 42) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  pool.Wait();  // pool still usable
}

TEST(ThreadPoolTest, ParallelForWaitsOnlyForItsOwnCall) {
  // Three callers share one pool. The long one parks every index on a
  // latch; the thrower and the short caller must both return while it
  // is still parked, and only the thrower sees its exception.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> parked{0};
  auto park = [&](size_t) {
    parked.fetch_add(1);
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::atomic<bool> long_threw{false};
  std::thread long_caller([&] {
    try {
      pool.ParallelFor(2, park);
    } catch (...) {
      long_threw.store(true);
    }
  });
  auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (parked.load() < 2 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (parked.load() != 2) {
    release.store(true);
    long_caller.join();
    FAIL() << "the long call never parked both indices";
  }

  std::atomic<bool> thrower_threw{false}, thrower_done{false};
  std::atomic<bool> short_threw{false}, short_done{false};
  std::atomic<int> short_hits{0};
  std::thread thrower([&] {
    try {
      pool.ParallelFor(4, [](size_t i) {
        if (i == 1) throw std::runtime_error("thrower's own failure");
      });
    } catch (const std::runtime_error&) {
      thrower_threw.store(true);
    }
    thrower_done.store(true);
  });
  std::thread short_caller([&] {
    try {
      pool.ParallelFor(8, [&](size_t) { short_hits.fetch_add(1); });
    } catch (...) {
      short_threw.store(true);
    }
    short_done.store(true);
  });
  until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!(thrower_done.load() && short_done.load()) &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool returned_while_parked = thrower_done.load() && short_done.load();
  release.store(true);
  thrower.join();
  short_caller.join();
  long_caller.join();

  EXPECT_TRUE(returned_while_parked)
      << "a caller waited for another caller's tasks";
  EXPECT_TRUE(thrower_threw.load());
  EXPECT_FALSE(short_threw.load());
  EXPECT_FALSE(long_threw.load());
  EXPECT_EQ(short_hits.load(), 8);
  pool.Wait();  // nothing leaked into the pool-wide exception slot
}

TEST(ThreadPoolTest, OversubscriptionCompletesAllTasks) {
  // Far more tasks than threads; every index must run exactly once.
  ThreadPool pool(2);
  constexpr size_t kTasks = 5000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.ParallelFor(kTasks, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

// ------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, CounterIncrementsAndResets) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(9);
  EXPECT_EQ(c.value(), 10u);
  // Same name returns the same instrument.
  EXPECT_EQ(&registry.counter("test.counter"), &c);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("test.gauge");
  g.Set(100);
  g.Add(-30);
  EXPECT_EQ(g.value(), 70);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(MetricsRegistryTest, HistogramBasicStats) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.hist");
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);  // empty histogram reports zeros, not inf
  EXPECT_EQ(h.max(), 0.0);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(MetricsRegistryTest, HistogramQuantilesAreOrdered) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.quant");
  for (int i = 1; i <= 1000; ++i) h.Observe(i * 0.1);  // 0.1 .. 100 ms
  double p50 = h.Quantile(0.5);
  double p90 = h.Quantile(0.9);
  double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Exponential buckets are coarse; just sanity-band the median.
  EXPECT_GT(p50, 10.0);
  EXPECT_LT(p50, 110.0);
}

TEST(MetricsRegistryTest, HistogramP999CapturesExtremeTail) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.p999");
  // 995 fast ops and five 500ms stalls: p99 stays fast, p999 must see
  // the stalls (this is the whole point of tracking it).
  for (int i = 0; i < 995; ++i) h.Observe(0.5);
  for (int i = 0; i < 5; ++i) h.Observe(500.0);
  double p99 = h.Quantile(0.99);
  double p999 = h.Quantile(0.999);
  EXPECT_LT(p99, 10.0);
  EXPECT_GT(p999, 100.0);
  EXPECT_LE(p99, p999);
  // The snapshot carries it too (benches read it from there).
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.histogram("test.p999");
  ASSERT_NE(hs, nullptr);
  EXPECT_GT(hs->p999, 100.0);
  EXPECT_NE(snap.ToJson().find("\"p999\""), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramClampsNegativeAndNan) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("test.clamp");
  h.Observe(-5.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(MetricsRegistryTest, SnapshotContainsAllInstruments) {
  MetricsRegistry registry;
  registry.counter("zebra.count").Increment(3);
  registry.counter("apple.count").Increment(1);
  registry.gauge("mid.gauge").Set(42);
  registry.histogram("lat.ms").Observe(7.0);
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Sorted by name.
  EXPECT_EQ(snap.counters[0].first, "apple.count");
  EXPECT_EQ(snap.counters[1].first, "zebra.count");
  EXPECT_EQ(snap.counter("zebra.count"), 3u);
  EXPECT_EQ(snap.gauge("mid.gauge"), 42);
  const HistogramSnapshot* h = snap.histogram("lat.ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
  EXPECT_DOUBLE_EQ(h->sum, 7.0);
  EXPECT_EQ(snap.histogram("no.such"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotToTextAndJson) {
  MetricsRegistry registry;
  registry.counter("requests").Increment(12);
  registry.histogram("latency.ms").Observe(3.5);
  MetricsSnapshot snap = registry.Snapshot();
  std::string text = snap.ToText();
  EXPECT_NE(text.find("requests"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
  EXPECT_NE(text.find("latency.ms"), std::string::npos);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"latency.ms\""), std::string::npos);
  // Crude structural sanity: balanced braces start/end.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistryTest, NamedRegistriesAreDistinctAndStable) {
  MetricsRegistry* a = &MetricsRegistry::Named("util_test.a");
  MetricsRegistry* b = &MetricsRegistry::Named("util_test.b");
  EXPECT_NE(a, b);
  EXPECT_EQ(&MetricsRegistry::Named("util_test.a"), a);
  EXPECT_NE(&MetricsRegistry::Default(), a);
  EXPECT_EQ(&MetricsRegistry::Default(), &MetricsRegistry::Default());
}

TEST(MetricsRegistryTest, ResetClearsValuesButKeepsInstruments) {
  MetricsRegistry registry;
  Counter& c = registry.counter("keep.me");
  c.Increment(5);
  registry.histogram("keep.hist").Observe(1.0);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);  // same instrument, zeroed
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("keep.me"), 0u);
  const HistogramSnapshot* h = snap.histogram("keep.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 0u);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOnDestruction) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("timer.ms");
  {
    ScopedTimer t(h);
  }
  EXPECT_EQ(h.count(), 1u);
  // Stop() records once and disarms the destructor.
  double ms = 0;
  {
    ScopedTimer t(h);
    ms = t.Stop();
  }
  EXPECT_GE(ms, 0.0);
  EXPECT_EQ(h.count(), 2u);
}

// ---------------------------------------------------------------- Retry

TEST(RetryPolicyTest, SucceedsWithoutRetryOnFirstOk) {
  RetryPolicy policy;
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, RetriesTransientIOErrorUntilSuccess) {
  RetryOptions options;
  options.max_attempts = 5;
  options.base_backoff_ms = 0;  // no sleeping in tests
  RetryPolicy policy(options);
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return calls < 3 ? Status::IOError("transient") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, ExhaustsBoundedAttempts) {
  RetryOptions options;
  options.max_attempts = 4;
  options.base_backoff_ms = 0;
  RetryPolicy policy(options);
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return Status::IOError("always failing");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 4);
}

TEST(RetryPolicyTest, NonTransientErrorsAreNotRetried) {
  RetryOptions options;
  options.max_attempts = 5;
  options.base_backoff_ms = 0;
  RetryPolicy policy(options);
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return Status::Corruption("data is bad, retrying cannot help");
  });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, SingleAttemptDisablesRetry) {
  RetryOptions options;
  options.max_attempts = 1;
  RetryPolicy policy(options);
  int calls = 0;
  Status s = policy.Run([&] {
    ++calls;
    return Status::IOError("once");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry registry;
  Counter& c = registry.counter("mt.counter");
  Histogram& h = registry.histogram("mt.hist");
  ThreadPool pool(8);
  constexpr int kPerTask = 1000;
  pool.ParallelFor(8, [&](size_t) {
    for (int i = 0; i < kPerTask; ++i) {
      c.Increment();
      h.Observe(1.0);
      // Instrument creation must also be safe under concurrency.
      registry.counter("mt.shared").Increment();
    }
  });
  pool.Wait();
  EXPECT_EQ(c.value(), 8u * kPerTask);
  EXPECT_EQ(h.count(), 8u * kPerTask);
  EXPECT_DOUBLE_EQ(h.sum(), 8.0 * kPerTask);
  EXPECT_EQ(registry.counter("mt.shared").value(), 8u * kPerTask);
}

// ---------------------------------------------------------------- LruCache

std::shared_ptr<const std::string> CacheValue(size_t size, char fill = 'x') {
  return std::make_shared<const std::string>(size, fill);
}

TEST(LruCacheTest, HitAndMiss) {
  ShardedLruCache cache(1 << 20, /*num_shards=*/1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 0, CacheValue(100, 'a'));
  auto hit = cache.Lookup(1, 0);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 'a');
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);  // same table, other block
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);  // other table, same block
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  // One shard, room for ~3 entries of 200B + overhead.
  ShardedLruCache cache(800, /*num_shards=*/1);
  cache.Insert(1, 0, CacheValue(200));
  cache.Insert(1, 1, CacheValue(200));
  cache.Insert(1, 2, CacheValue(200));
  // Touch block 0 so block 1 is now the LRU entry.
  ASSERT_NE(cache.Lookup(1, 0), nullptr);
  cache.Insert(1, 3, CacheValue(200));  // must evict block 1
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
  EXPECT_NE(cache.Lookup(1, 3), nullptr);
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(LruCacheTest, CapacityAccountingStaysBounded) {
  constexpr size_t kCapacity = 4096;
  ShardedLruCache cache(kCapacity, /*num_shards=*/1);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(1, rng.Uniform(64), CacheValue(1 + rng.Uniform(300)));
    EXPECT_LE(cache.stats().bytes_used, kCapacity);
  }
  // Re-inserting an existing key must replace, not double-count.
  size_t entries_before = cache.stats().entries;
  cache.Insert(1, 0, CacheValue(10));
  cache.Insert(1, 0, CacheValue(10));
  EXPECT_LE(cache.stats().entries, entries_before + 1);
  EXPECT_LE(cache.stats().bytes_used, kCapacity);
}

TEST(LruCacheTest, OversizedEntryIsNotCached) {
  ShardedLruCache cache(1024, /*num_shards=*/4);  // 256B per shard
  cache.Insert(1, 0, CacheValue(5000));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(LruCacheTest, EvictedValueSurvivesWhilePinned) {
  ShardedLruCache cache(400, /*num_shards=*/1);
  cache.Insert(1, 0, CacheValue(200, 'p'));
  auto pinned = cache.Lookup(1, 0);
  ASSERT_NE(pinned, nullptr);
  cache.Insert(1, 1, CacheValue(200));  // evicts block 0
  cache.Insert(1, 2, CacheValue(200));
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  // The pinned copy is untouched by the eviction.
  EXPECT_EQ(pinned->size(), 200u);
  EXPECT_EQ((*pinned)[0], 'p');
}

TEST(LruCacheTest, InstrumentsCountHitsMissesEvictions) {
  MetricsRegistry registry;
  ShardedLruCache::Instruments instruments;
  instruments.hits = &registry.counter("c.hits");
  instruments.misses = &registry.counter("c.misses");
  instruments.evictions = &registry.counter("c.evictions");
  ShardedLruCache cache(400, /*num_shards=*/1, instruments);
  cache.Lookup(1, 0);                    // miss
  cache.Insert(1, 0, CacheValue(200));
  cache.Lookup(1, 0);                    // hit
  cache.Insert(1, 1, CacheValue(200));   // evicts block 0
  EXPECT_EQ(registry.counter("c.hits").value(), 1u);
  EXPECT_EQ(registry.counter("c.misses").value(), 1u);
  EXPECT_GE(registry.counter("c.evictions").value(), 1u);
}

TEST(LruCacheTest, ConcurrentHammerKeepsInvariants) {
  constexpr size_t kCapacity = 64 << 10;
  ShardedLruCache cache(kCapacity, /*num_shards=*/16);
  ThreadPool pool(8);
  pool.ParallelFor(8, [&](size_t t) {
    Rng rng(100 + t);
    for (int i = 0; i < 5000; ++i) {
      uint64_t id = rng.Uniform(4);
      uint64_t index = rng.Uniform(128);
      if (rng.Uniform(2) == 0) {
        auto v = cache.Lookup(id, index);
        if (v != nullptr) {
          // Values are immutable; a hit must be fully readable.
          volatile char c = (*v)[v->size() - 1];
          (void)c;
        }
      } else {
        cache.Insert(id, index, CacheValue(1 + rng.Uniform(512)));
      }
    }
  });
  pool.Wait();
  LruCacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes_used, kCapacity);
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.inserts, 0u);
}


// --------------------------------------------------------------- io_util

TEST(IoUtilTest, ReadFullyReassemblesChunkedWrites) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload = "length-prefixed frames survive short reads";
  std::thread writer([&] {
    // Dribble the payload a few bytes at a time so the reader sees
    // short reads and must loop.
    for (size_t i = 0; i < payload.size(); i += 3) {
      size_t n = std::min<size_t>(3, payload.size() - i);
      ASSERT_EQ(::write(fds[1], payload.data() + i, n),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::close(fds[1]);
  });
  std::string buf(payload.size(), '\0');
  EXPECT_EQ(ReadFully(fds[0], buf.data(), buf.size()),
            static_cast<ssize_t>(buf.size()));
  EXPECT_EQ(buf, payload);
  writer.join();
  ::close(fds[0]);
}

TEST(IoUtilTest, ReadFullyReportsCleanEofShort) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);  // peer goes away mid-frame
  char buf[10];
  // A torn frame comes back as a short count, not an error: the caller
  // distinguishes "peer hung up" from "syscall failed".
  EXPECT_EQ(ReadFully(fds[0], buf, sizeof(buf)), 3);
  ::close(fds[0]);
}

TEST(IoUtilTest, ReadFullyErrorsOnBadFd) {
  char buf[4];
  EXPECT_EQ(ReadFully(-1, buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EBADF);
}

TEST(IoUtilTest, WriteFullyCompletesAcrossFullPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Much larger than the default pipe buffer, so write() must block
  // and return short at least once while the reader drains.
  const size_t kBytes = 4u << 20;
  std::string received;
  std::thread reader([&] {
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fds[0], chunk, sizeof(chunk))) > 0) {
      received.append(chunk, static_cast<size_t>(n));
    }
  });
  std::string payload(kBytes, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + (i % 26));
  }
  EXPECT_EQ(WriteFully(fds[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::close(fds[1]);
  reader.join();
  EXPECT_EQ(received, payload);
  ::close(fds[0]);
}

TEST(IoUtilTest, WriteFullyErrorsOnClosedPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ::close(fds[0]);
  ::signal(SIGPIPE, SIG_IGN);
  char buf[16] = {0};
  EXPECT_EQ(WriteFully(fds[1], buf, sizeof(buf)), -1);
  EXPECT_EQ(errno, EPIPE);
  ::close(fds[1]);
}

TEST(IoUtilTest, SendFullyOnHungUpSocketIsEpipeNotSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);  // peer hangs up
  char buf[16] = {0};
  // First send may succeed into the buffer; keep sending until the
  // RST/EOF is observed. Without MSG_NOSIGNAL this would kill the
  // process with SIGPIPE instead of failing politely.
  ssize_t result = 0;
  for (int i = 0; i < 8 && result >= 0; ++i) {
    result = SendFully(fds[1], buf, sizeof(buf));
  }
  EXPECT_EQ(result, -1);
  EXPECT_EQ(errno, EPIPE);
  ::close(fds[1]);
}

namespace io_util_signal {
void NoopHandler(int) {}
}  // namespace io_util_signal

TEST(IoUtilTest, ReadFullyRetriesEintr) {
  // Install a no-op handler WITHOUT SA_RESTART so a signal delivered
  // while read() is blocked makes it fail with EINTR — which ReadFully
  // must swallow and retry.
  struct sigaction action {};
  action.sa_handler = io_util_signal::NoopHandler;
  action.sa_flags = 0;
  struct sigaction saved {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &saved), 0);

  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<bool> reading{false};
  pthread_t reader_thread;
  std::string buf(8, '\0');
  ssize_t result = -2;
  std::thread reader([&] {
    reader_thread = pthread_self();
    reading.store(true);
    result = ReadFully(fds[0], buf.data(), buf.size());
  });
  while (!reading.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Interrupt the blocked read a few times, then satisfy it.
  for (int i = 0; i < 3; ++i) {
    pthread_kill(reader_thread, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::write(fds[1], "12345678", 8), 8);
  reader.join();
  EXPECT_EQ(result, 8);
  EXPECT_EQ(buf, "12345678");
  ::close(fds[0]);
  ::close(fds[1]);
  ::sigaction(SIGUSR1, &saved, nullptr);
}


}  // namespace
}  // namespace kb
