#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "cache/data_cache.h"
#include "engine/engine_context.h"
#include "engine/scan_sets.h"
#include "placement/strategy_runner.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

class DataCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemConfig config;
    config.simulate_time = false;
    simulator_ = std::make_unique<Simulator>(config);
  }

  ColumnPtr MakeColumn(const std::string& name, size_t rows) {
    return std::make_shared<Int32Column>(name,
                                         std::vector<int32_t>(rows, 1));
  }

  std::unique_ptr<Simulator> simulator_;
};

TEST_F(DataCacheTest, MissThenHit) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr column = MakeColumn("a", 100);  // 400 bytes

  auto first = cache.RequireOnDevice(column, "t.a");
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(first.resident);
  EXPECT_TRUE(first.lease.valid());
  first.lease.Release();

  auto second = cache.RequireOnDevice(column, "t.a");
  EXPECT_TRUE(second.hit);
  EXPECT_TRUE(second.resident);

  const DataCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(cache.used_bytes(), 400u);
}

TEST_F(DataCacheTest, MissPaysBusTransferOnce) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr column = MakeColumn("a", 100);
  { auto access = cache.RequireOnDevice(column, "t.a"); }
  { auto access = cache.RequireOnDevice(column, "t.a"); }
  EXPECT_EQ(
      simulator_->bus().transferred_bytes(TransferDirection::kHostToDevice),
      400u);
}

TEST_F(DataCacheTest, LruEvictsLeastRecentlyUsed) {
  DataCache cache(1000, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(b, "t.b");
  cache.RequireOnDevice(a, "t.a");  // a more recent than b
  cache.RequireOnDevice(c, "t.c");  // 1200 bytes needed -> evict b
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_FALSE(cache.IsCached("t.b"));
  EXPECT_TRUE(cache.IsCached("t.c"));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(DataCacheTest, LfuEvictsLeastFrequentlyUsed) {
  DataCache cache(1000, EvictionPolicy::kLfu, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(a, "t.a");  // a: 3 accesses
  cache.RequireOnDevice(b, "t.b");  // b: 1 access
  cache.RequireOnDevice(a, "t.a");  // a: 4 accesses (and most recent)
  cache.RequireOnDevice(c, "t.c");  // evicts b (LFU)
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_FALSE(cache.IsCached("t.b"));
  EXPECT_TRUE(cache.IsCached("t.c"));
}

TEST_F(DataCacheTest, TransientWhenNothingFits) {
  DataCache cache(300, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr big = MakeColumn("big", 200);  // 800 bytes > capacity
  auto access = cache.RequireOnDevice(big, "t.big");
  EXPECT_FALSE(access.hit);
  EXPECT_FALSE(access.resident);
  EXPECT_FALSE(access.lease.valid());
  // The transfer still happened (into heap, paid by the caller).
  EXPECT_EQ(
      simulator_->bus().transferred_bytes(TransferDirection::kHostToDevice),
      800u);
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST_F(DataCacheTest, LeasedEntriesAreNotEvicted) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  auto lease_a = cache.RequireOnDevice(a, "t.a");  // hold the lease
  cache.RequireOnDevice(b, "t.b");
  // Inserting c (400 bytes) into 800-byte cache requires evicting one entry;
  // a is leased, so b must go even though a is older.
  auto access_c = cache.RequireOnDevice(c, "t.c");
  EXPECT_TRUE(access_c.resident);
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_FALSE(cache.IsCached("t.b"));
}

TEST_F(DataCacheTest, EvictionDeferredUntilLeaseRelease) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100);
  auto lease_a = cache.RequireOnDevice(a, "t.a");
  cache.RequireOnDevice(b, "t.b");
  // Placement job selects only b: a is marked for eviction but leased.
  b->RecordAccess();
  cache.RunPlacementJob({{"t.b", b}}, {});
  EXPECT_FALSE(cache.IsCached("t.a"));  // pending eviction: not usable
  EXPECT_GE(cache.used_bytes(), 800u);  // but bytes still occupied
  lease_a.lease.Release();
  EXPECT_EQ(cache.used_bytes(), 400u);  // dropped on last release
}

TEST_F(DataCacheTest, PlacementJobSelectsMostFrequentColumns) {
  DataCache cache(800, EvictionPolicy::kLfu, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100),
            c = MakeColumn("c", 100);
  // Simulate query-processing access counts.
  for (int i = 0; i < 10; ++i) a->RecordAccess();
  for (int i = 0; i < 5; ++i) c->RecordAccess();
  b->RecordAccess();
  cache.RunPlacementJob({{"t.a", a}, {"t.b", b}, {"t.c", c}}, {});
  // Budget fits two columns: the two most frequently accessed.
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_TRUE(cache.IsCached("t.c"));
  EXPECT_FALSE(cache.IsCached("t.b"));
  EXPECT_EQ(cache.stats().placement_job_runs, 1u);
}

TEST_F(DataCacheTest, PlacementJobEvictsDeselectedColumns) {
  DataCache cache(800, EvictionPolicy::kLfu, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100), b = MakeColumn("b", 100);
  a->RecordAccess();
  b->RecordAccess();
  cache.RunPlacementJob({{"t.a", a}, {"t.b", b}}, {});
  EXPECT_TRUE(cache.IsCached("t.a"));
  EXPECT_TRUE(cache.IsCached("t.b"));
  // Access pattern shifts: now only b is hot and a new column d joins.
  b->RecordAccess();
  b->RecordAccess();
  ColumnPtr d = MakeColumn("d", 100);
  d->RecordAccess();
  cache.RunPlacementJob({{"t.b", b}, {"t.d", d}}, {});
  EXPECT_FALSE(cache.IsCached("t.a"));
  EXPECT_TRUE(cache.IsCached("t.b"));
  EXPECT_TRUE(cache.IsCached("t.d"));
}

TEST_F(DataCacheTest, PlacementJobRespectsBudget) {
  DataCache cache(700, EvictionPolicy::kLfu, simulator_.get());
  std::vector<std::pair<std::string, ColumnPtr>> columns;
  for (int i = 0; i < 5; ++i) {
    ColumnPtr c = MakeColumn("c" + std::to_string(i), 100);  // 400 bytes
    for (int k = 0; k < 5 - i; ++k) c->RecordAccess();
    columns.emplace_back("t.c" + std::to_string(i), c);
  }
  cache.RunPlacementJob(columns, {});
  EXPECT_LE(cache.used_bytes(), 700u);
  // Greedy fill by access count: c0 (most accessed) fits, c1 does not (800 >
  // 700), later smaller... all are equal-sized, so exactly one fits.
  EXPECT_TRUE(cache.IsCached("t.c0"));
  EXPECT_EQ(cache.CachedKeys().size(), 1u);
}

TEST_F(DataCacheTest, PlacementJobPinsAgainstDemandEviction) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  a->RecordAccess();
  cache.RunPlacementJob({{"t.a", a}}, {});
  // Demand-insert two more: only one fits besides pinned a, and a must stay.
  ColumnPtr b = MakeColumn("b", 100), c = MakeColumn("c", 100);
  cache.RequireOnDevice(b, "t.b");
  cache.RequireOnDevice(c, "t.c");
  EXPECT_TRUE(cache.IsCached("t.a"));
}

TEST_F(DataCacheTest, PinExplicitly) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  ASSERT_TRUE(cache.Pin(a, "t.a").ok());
  EXPECT_TRUE(cache.IsCached("t.a"));
  ColumnPtr big = MakeColumn("big", 250);  // 1000 bytes never fits
  EXPECT_TRUE(cache.Pin(big, "t.big").IsResourceExhausted());
}

TEST_F(DataCacheTest, ClearDropsEverything) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  ColumnPtr a = MakeColumn("a", 100);
  cache.RequireOnDevice(a, "t.a");
  cache.Clear();
  EXPECT_FALSE(cache.IsCached("t.a"));
  EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST_F(DataCacheTest, TryGetOnlyHitsExistingEntries) {
  DataCache cache(800, EvictionPolicy::kLru, simulator_.get());
  EXPECT_FALSE(cache.TryGet("t.a").has_value());
  ColumnPtr a = MakeColumn("a", 100);
  cache.RequireOnDevice(a, "t.a");
  EXPECT_TRUE(cache.TryGet("t.a").has_value());
}

TEST_F(DataCacheTest, ConcurrentAccessIsSafe) {
  DataCache cache(4000, EvictionPolicy::kLru, simulator_.get());
  std::vector<ColumnPtr> columns;
  for (int i = 0; i < 16; ++i) {
    columns.push_back(MakeColumn("c" + std::to_string(i), 100));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int idx = (t * 7 + i) % 16;
        auto access = cache.RequireOnDevice(
            columns[idx], "t.c" + std::to_string(idx));
        if (access.resident) {
          EXPECT_TRUE(access.lease.valid());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.used_bytes(), 4000u);
}

/// The cache-thrashing mechanism of Figure 2: N equally-sized columns
/// accessed round-robin through a cache that holds N-1 of them miss on
/// every access under LRU.
TEST_F(DataCacheTest, RoundRobinOneShortOfCapacityAlwaysMisses) {
  const size_t column_bytes = 400;
  DataCache cache(7 * column_bytes, EvictionPolicy::kLru, simulator_.get());
  std::vector<ColumnPtr> columns;
  for (int i = 0; i < 8; ++i) {
    columns.push_back(MakeColumn("c" + std::to_string(i), 100));
  }
  // Three full rounds over 8 columns.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      cache.RequireOnDevice(columns[i], "t.c" + std::to_string(i));
    }
  }
  const DataCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 24u);
  // With a cache large enough for all 8, rounds 2..3 are pure hits.
  DataCache big_cache(8 * column_bytes, EvictionPolicy::kLru, simulator_.get());
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      big_cache.RequireOnDevice(columns[i], "t.c" + std::to_string(i));
    }
  }
  EXPECT_EQ(big_cache.stats().misses, 8u);
  EXPECT_EQ(big_cache.stats().hits, 16u);
}

/// The working-set step of the placement job: toy columns of 400 bytes each
/// and recorded scan sets.
class ScanSetSelectionTest : public DataCacheTest {
 protected:
  static constexpr size_t kColumnBytes = 400;

  /// Adds columns `t.<name>`, in this order (per-column ties keep it).
  void AddColumns(const std::vector<std::string>& names) {
    for (const std::string& name : names) {
      columns_.emplace_back("t." + name, MakeColumn(name, 100));
    }
  }

  /// Records `executions` scans of `names` the way a scan operator does:
  /// one access per column per execution, one count for the set.
  void Scan(const std::vector<std::string>& names, uint64_t executions) {
    ScanSetCount set;
    set.executions = executions;
    for (const std::string& name : names) {
      set.keys.push_back("t." + name);
      for (const auto& [key, column] : columns_) {
        if (key != "t." + name) continue;
        for (uint64_t e = 0; e < executions; ++e) column->RecordAccess();
      }
    }
    std::sort(set.keys.begin(), set.keys.end());
    sets_.push_back(std::move(set));
  }

  /// The recorded sets in key order, as ScanSetCounts::Snapshot returns.
  std::vector<ScanSetCount> Sets() const {
    std::vector<ScanSetCount> sets = sets_;
    std::sort(sets.begin(), sets.end(),
              [](const auto& a, const auto& b) { return a.keys < b.keys; });
    return sets;
  }

  std::vector<std::pair<std::string, ColumnPtr>> columns_;
  std::vector<ScanSetCount> sets_;
};

// The lo_quantity / lo_supplycost case at toy sizes: {a, b} is resident and
// one more column fits. q and s tie on count; q completes no set, s
// completes {a, b, s}. Ranking columns alone takes q (it comes first).
TEST_F(ScanSetSelectionTest, ColumnCompletingASetBeatsOneCompletingNone) {
  AddColumns({"a", "b", "q", "x", "s"});
  Scan({"a", "b"}, 6);
  Scan({"q", "x"}, 3);
  Scan({"a", "b", "s"}, 3);

  DataCache cache(3 * kColumnBytes, EvictionPolicy::kLfu, simulator_.get());
  cache.RunPlacementJob(columns_, Sets());
  EXPECT_EQ(cache.CachedKeys(),
            (std::vector<std::string>{"t.a", "t.b", "t.s"}));

  DataCache columns_only(3 * kColumnBytes, EvictionPolicy::kLfu,
                         simulator_.get());
  columns_only.RunPlacementJob(columns_, {});
  EXPECT_EQ(columns_only.CachedKeys(),
            (std::vector<std::string>{"t.a", "t.b", "t.q"}));
}

// The workload-shift case: A is more frequent than each of B, C, D but less
// than their sum; B, C and D fit together, A fits with none of them. Greedy
// by count (or by count per byte) alone takes A and covers 5 executions;
// seeding from B or C covers 10.
TEST_F(ScanSetSelectionTest, OverlappingSetsBeatOneMoreFrequentSet) {
  AddColumns({"o", "x", "y", "z", "p", "s", "r", "c", "u"});
  Scan({"o", "x", "y", "z"}, 5);            // A
  Scan({"o", "p", "s", "r"}, 3);            // B
  Scan({"c", "s", "o", "r"}, 4);            // C
  Scan({"c", "s", "p", "o", "r", "u"}, 3);  // D

  DataCache cache(6 * kColumnBytes, EvictionPolicy::kLfu, simulator_.get());
  cache.RunPlacementJob(columns_, Sets());
  EXPECT_EQ(cache.CachedKeys(), (std::vector<std::string>{
                                    "t.c", "t.o", "t.p", "t.r", "t.s", "t.u"}));
}

// Unchanged counts give an unchanged cache: re-running the job loads and
// evicts nothing.
TEST_F(ScanSetSelectionTest, RerunWithSameCountsCausesNoChurn) {
  AddColumns({"o", "x", "y", "z", "p", "s", "r", "c", "u"});
  Scan({"o", "x", "y", "z"}, 5);
  Scan({"o", "p", "s", "r"}, 3);
  Scan({"c", "s", "o", "r"}, 4);
  Scan({"c", "s", "p", "o", "r", "u"}, 3);
  DataCache cache(6 * kColumnBytes, EvictionPolicy::kLfu, simulator_.get());
  cache.RunPlacementJob(columns_, Sets());
  const std::vector<std::string> first = cache.CachedKeys();
  const DataCacheStats before = cache.stats();
  cache.RunPlacementJob(columns_, Sets());
  EXPECT_EQ(cache.CachedKeys(), first);
  EXPECT_EQ(cache.stats().insertions, before.insertions);
  EXPECT_EQ(cache.stats().evictions, before.evictions);
}

// Without recorded scan sets the job is the per-column Algorithm 1: rank by
// access count, skip what does not fit, keep filling.
TEST_F(ScanSetSelectionTest, WithoutScanSetsColumnsAreRankedByCount) {
  ColumnPtr a = MakeColumn("a", 150), b = MakeColumn("b", 150),
            c = MakeColumn("c", 50);  // 600, 600, 200 bytes
  for (int i = 0; i < 9; ++i) a->RecordAccess();
  for (int i = 0; i < 5; ++i) b->RecordAccess();
  for (int i = 0; i < 3; ++i) c->RecordAccess();
  DataCache cache(1000, EvictionPolicy::kLfu, simulator_.get());
  cache.RunPlacementJob({{"t.a", a}, {"t.b", b}, {"t.c", c}}, {});
  EXPECT_EQ(cache.CachedKeys(), (std::vector<std::string>{"t.a", "t.c"}));
}

// LRU, the Appendix E baseline, ranks single columns by recency and ignores
// scan sets.
TEST_F(ScanSetSelectionTest, LruIgnoresScanSets) {
  AddColumns({"a", "b"});
  Scan({"b"}, 10);
  Scan({"a"}, 1);  // accessed last: the most recent column
  DataCache cache(kColumnBytes, EvictionPolicy::kLru, simulator_.get());
  cache.RunPlacementJob(columns_, Sets());
  EXPECT_EQ(cache.CachedKeys(), (std::vector<std::string>{"t.a"}));
}

// A set whose columns live on two device shards can never be whole on one
// device, so neither device's job counts it.
TEST_F(ScanSetSelectionTest, SetSpanningTwoShardsIsNoCandidate) {
  AddColumns({"a", "b", "z"});
  Scan({"a", "z"}, 10);
  Scan({"b"}, 4);
  const std::vector<std::pair<std::string, ColumnPtr>> shard0 = {
      columns_[0], columns_[1]};
  const std::vector<std::pair<std::string, ColumnPtr>> shard1 = {columns_[2]};

  // Shard 0 holds one column: {b} is its only whole set, and is chosen
  // over the more accessed a. Counting {a, z} would have chosen a.
  DataCache device0(kColumnBytes, EvictionPolicy::kLfu, simulator_.get());
  device0.RunPlacementJob(shard0, Sets());
  EXPECT_EQ(device0.CachedKeys(), (std::vector<std::string>{"t.b"}));

  // Shard 1 has no whole set; the per-column fill still caches z.
  DataCache device1(kColumnBytes, EvictionPolicy::kLfu, simulator_.get());
  device1.RunPlacementJob(shard1, Sets());
  EXPECT_EQ(device1.CachedKeys(), (std::vector<std::string>{"t.z"}));
}

/// Scan set recording in the engine.
class ScanSetCountsTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = MakeTinyDb(); }

  PlanNodePtr FactScan() const {
    return std::make_shared<ScanNode>(db_->GetTable("fact").value(),
                                      std::vector<std::string>{"v", "fk"});
  }

  static uint64_t Executions(EngineContext& ctx,
                             const std::vector<std::string>& keys) {
    for (const ScanSetCount& set : ctx.scan_sets().Snapshot()) {
      if (set.keys == keys) return set.executions;
    }
    return 0;
  }

  DatabasePtr db_;
};

TEST_F(ScanSetCountsTest, CountsAreKeyedBySortedColumnsPerEngine) {
  EngineContext first(TestConfig(), db_);
  StrategyRunner first_runner(&first, Strategy::kCpuOnly);
  ASSERT_TRUE(first_runner.RunQuery(FactScan()).ok());
  const std::vector<std::string> fact = {"fact.fk", "fact.v"};
  EXPECT_EQ(Executions(first, fact), 1u);

  // A second engine over the same database (a reference run, say) keeps
  // its own counts.
  EngineContext second(TestConfig(), db_);
  StrategyRunner second_runner(&second, Strategy::kCpuOnly);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(second_runner.RunQuery(FactScan()).ok());
  }
  EXPECT_EQ(Executions(second, fact), 3u);
  EXPECT_EQ(Executions(first, fact), 1u);
  EXPECT_EQ(first.scan_sets().Snapshot().size(), 1u);

  // Placement state, not a run stat: a stats reset keeps it.
  first.ResetRunStats();
  EXPECT_EQ(Executions(first, fact), 1u);
}

TEST_F(ScanSetCountsTest, DeviceRetryCountsOneExecution) {
  EngineContext ctx(TestConfig(), db_);
  ctx.simulator().fault_injector().SetSchedule(
      FaultSite::kKernel, FaultSchedule::FirstN(FaultKind::kTransient, 1));
  StrategyRunner runner(&ctx, Strategy::kGpuOnly);
  ASSERT_TRUE(runner.RunQuery(FactScan()).ok());
  EXPECT_EQ(
      ctx.telemetry().registry().GetCounter("engine.device_retries").value(),
      1);
  EXPECT_EQ(Executions(ctx, {"fact.fk", "fact.v"}), 1u);
}

TEST_F(ScanSetCountsTest, CoverageFollowsThePlacersAllInputsRule) {
  SystemConfig config = TestConfig();
  config.device_count = 2;
  EngineContext ctx(config, db_);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(runner.RunQuery(FactScan()).ok());
  const TablePtr fact = db_->GetTable("fact").value();
  EXPECT_EQ(ctx.ScanSetCoverage().covered, 0u);

  ASSERT_TRUE(ctx.cache(0).Pin(fact->GetColumn("v").value(), "fact.v").ok());
  EXPECT_FALSE(ctx.IsScanSetCached({"fact.fk", "fact.v"}));
  EXPECT_EQ(ctx.ScanSetCoverage().covered, 0u);

  // Split across two devices still counts: the data-driven placer asks only
  // that every input be cached on some device.
  ASSERT_TRUE(ctx.cache(1).Pin(fact->GetColumn("fk").value(), "fact.fk").ok());
  const AccessCoverage coverage = ctx.ScanSetCoverage();
  EXPECT_EQ(coverage.covered, 2u);
  EXPECT_EQ(coverage.total, 2u);
  EXPECT_EQ(coverage.sets_resident, 1u);
  EXPECT_DOUBLE_EQ(coverage.Share(), 1.0);
}

TEST_F(ScanSetCountsTest, FullTableDropsTheLeastExecutedSet) {
  // Seven columns give more distinct scan sets than the table holds.
  auto wide = std::make_shared<Table>("wide");
  std::vector<std::string> names;
  for (int c = 0; c < 7; ++c) {
    names.push_back("c" + std::to_string(c));
    ASSERT_TRUE(wide->AddColumn(std::make_shared<Int32Column>(
                                    names.back(), std::vector<int32_t>{c}))
                    .ok());
  }
  auto scan = [&](uint32_t mask) {
    std::vector<std::string> columns;
    for (int c = 0; c < 7; ++c) {
      if (mask & (1u << c)) columns.push_back(names[c]);
    }
    return ScanNode(wide, columns);
  };
  ScanSetCounts counts;
  counts.Record(scan(1));  // {c0}, the only set executed twice
  for (uint32_t mask = 1; mask <= ScanSetCounts::kCapacity + 1; ++mask) {
    counts.Record(scan(mask));
  }
  const std::vector<ScanSetCount> sets = counts.Snapshot();
  ASSERT_EQ(sets.size(), ScanSetCounts::kCapacity);
  auto executions = [&](const std::vector<std::string>& keys) -> uint64_t {
    for (const ScanSetCount& set : sets) {
      if (set.keys == keys) return set.executions;
    }
    return 0;
  };
  EXPECT_EQ(executions({"wide.c0"}), 2u);
  // The set recorded last made room by dropping a once-executed set.
  EXPECT_EQ(executions({"wide.c0", "wide.c6"}), 1u);
}

}  // namespace
}  // namespace hetdb
