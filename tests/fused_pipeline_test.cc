// Tests for operator fusion (DESIGN.md §11): the FusePipelines plan rewrite
// and the FusedPipeline kernel. The core invariant mirrors the parallel
// kernel suite — fusion substitutes *execution shape*, never results: every
// fused plan must produce byte-identical output to the unfused plan, across
// backends, worker counts, and adversarial inputs. Also checks the fusion
// win itself: strictly lower simulated device-heap high-water for a fused
// SSB query.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/parallel.h"
#include "engine/pipeline_builder.h"
#include "operators/fused_pipeline.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

// ---------------------------------------------------------------------------
// Scope guards (same idiom as parallel_kernels_test.cc)
// ---------------------------------------------------------------------------

/// Applies a kernel backend + DoP + fusion configuration for one scope.
class KernelScope {
 public:
  KernelScope(KernelBackend backend, int threads, size_t morsel_rows,
              bool fusion)
      : saved_(GlobalKernelConfig()),
        saved_capacity_(DopBudget::Global().capacity()) {
    GlobalKernelConfig().backend = backend;
    GlobalKernelConfig().max_dop = threads;
    GlobalKernelConfig().morsel_rows = morsel_rows;
    GlobalKernelConfig().fusion = fusion;
    DopBudget::Global().SetCapacity(threads);
  }
  ~KernelScope() {
    GlobalKernelConfig() = saved_;
    DopBudget::Global().SetCapacity(saved_capacity_);
  }

 private:
  KernelConfig saved_;
  int saved_capacity_;
};

std::vector<int> ThreadCounts() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return {1, 2, 7, hw > 0 ? hw : 4};
}

/// Byte-identical comparison of raw value storage (doubles compared
/// bitwise: the fused aggregate must reproduce the unfused accumulation
/// order exactly, not just to rounding).
template <typename T>
void ExpectBitIdenticalValues(const std::vector<T>& a, const std::vector<T>& b,
                              const std::string& col) {
  ASSERT_EQ(a.size(), b.size()) << "row count of column " << col;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0)
        << "bytes of column " << col;
  }
}

void ExpectBitIdenticalTables(const TablePtr& ta, const TablePtr& tb) {
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  ASSERT_EQ(ta->num_columns(), tb->num_columns());
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (size_t c = 0; c < ta->num_columns(); ++c) {
    const Column& ca = *ta->columns()[c];
    const Column& cb = *tb->columns()[c];
    EXPECT_EQ(ca.name(), cb.name());
    ASSERT_EQ(ca.type(), cb.type()) << "type of column " << ca.name();
    switch (ca.type()) {
      case DataType::kInt32:
        ExpectBitIdenticalValues(static_cast<const Int32Column&>(ca).values(),
                                 static_cast<const Int32Column&>(cb).values(),
                                 ca.name());
        break;
      case DataType::kInt64:
        ExpectBitIdenticalValues(static_cast<const Int64Column&>(ca).values(),
                                 static_cast<const Int64Column&>(cb).values(),
                                 ca.name());
        break;
      case DataType::kDouble:
        ExpectBitIdenticalValues(static_cast<const DoubleColumn&>(ca).values(),
                                 static_cast<const DoubleColumn&>(cb).values(),
                                 ca.name());
        break;
      case DataType::kString: {
        const auto& sa = static_cast<const StringColumn&>(ca);
        const auto& sb = static_cast<const StringColumn&>(cb);
        EXPECT_EQ(sa.dictionary(), sb.dictionary())
            << "dictionary of column " << ca.name();
        ExpectBitIdenticalValues(sa.codes(), sb.codes(), ca.name());
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Plan helpers
// ---------------------------------------------------------------------------

/// Runs `plan` under the given strategy twice — fusion off then on — and
/// asserts byte-identical results. Returns the fused result.
TablePtr ExpectFusionParity(const DatabasePtr& db, const PlanNodePtr& plan,
                            Strategy strategy, KernelBackend backend,
                            int threads, size_t morsel_rows = 256) {
  TablePtr unfused;
  {
    KernelScope scope(backend, threads, morsel_rows, /*fusion=*/false);
    EngineContext ctx(TestConfig(), db);
    StrategyRunner runner(&ctx, strategy);
    Result<TablePtr> result = runner.RunQuery(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return nullptr;
    unfused = result.value();
  }
  TablePtr fused;
  {
    KernelScope scope(backend, threads, morsel_rows, /*fusion=*/true);
    EngineContext ctx(TestConfig(), db);
    StrategyRunner runner(&ctx, strategy);
    Result<TablePtr> result = runner.RunQuery(plan);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return nullptr;
    fused = result.value();
  }
  ExpectBitIdenticalTables(unfused, fused);
  return fused;
}

class FusedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = MakeTinyDb(); }

  PlanNodePtr ScanFact(std::vector<std::string> columns = {"fk", "v"}) {
    return std::make_shared<ScanNode>(db_->GetTable("fact").value(),
                                      std::move(columns));
  }

  PlanNodePtr ScanDim() {
    return std::make_shared<ScanNode>(db_->GetTable("dim").value(),
                                      std::vector<std::string>{"key", "name"});
  }

  /// select(lo < v < hi) -> join dim -> sum(v), count(*) by name.
  PlanNodePtr StarPlan(int64_t lo = 10, int64_t hi = 60) {
    PlanNodePtr select = std::make_shared<SelectNode>(
        ScanFact(), ConjunctiveFilter::And({Predicate::Gt("v", lo),
                                            Predicate::Lt("v", hi)}));
    JoinOutputSpec spec;
    spec.build_columns = {"name"};
    spec.probe_columns = {"v"};
    PlanNodePtr join = std::make_shared<JoinNode>(
        ScanDim(), std::move(select), "key", "fk", spec);
    return std::make_shared<AggregateNode>(
        std::move(join), std::vector<std::string>{"name"},
        std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"},
                                   {AggregateFn::kCount, "", "n"}});
  }

  DatabasePtr db_;
};

// ---------------------------------------------------------------------------
// Rewrite structure
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, RewriteFusesFilterProbeAggregateChain) {
  PlanNodePtr plan = StarPlan();
  PlanNodePtr fused = FusePipelines(plan);
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  const auto& node = static_cast<const FusedPipelineNode&>(*fused);
  ASSERT_EQ(node.members().size(), 3u);  // select, join, aggregate bottom-up
  EXPECT_EQ(node.members()[0]->op(), PlanOp::kSelect);
  EXPECT_EQ(node.members()[1]->op(), PlanOp::kJoin);
  EXPECT_EQ(node.members()[2]->op(), PlanOp::kAggregate);
  EXPECT_EQ(node.num_joins(), 1u);
  // Children: fact scan (source) + dim scan (build).
  ASSERT_EQ(fused->children().size(), 2u);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kScan);
  EXPECT_EQ(fused->children()[1]->op(), PlanOp::kScan);
}

TEST_F(FusedPipelineTest, RewriteIsIdempotent) {
  PlanNodePtr once = FusePipelines(StarPlan());
  PlanNodePtr twice = FusePipelines(once);
  EXPECT_EQ(once, twice);  // same node, not a re-wrapped copy
}

TEST_F(FusedPipelineTest, SortBreaksThePipeline) {
  PlanNodePtr sorted = std::make_shared<SortNode>(
      StarPlan(), std::vector<SortKey>{{"name", true}});
  PlanNodePtr fused = FusePipelines(sorted);
  ASSERT_EQ(fused->op(), PlanOp::kSort);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kFusedPipeline);
  EXPECT_EQ(CountFusedNodes(fused), 1u);
}

TEST_F(FusedPipelineTest, SingleOperatorChainsAreNotFused) {
  // select -> scan alone is left as-is (fusing one member buys nothing).
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  EXPECT_EQ(CountFusedNodes(FusePipelines(select)), 0u);
}

TEST_F(FusedPipelineTest, MidChainAggregateBreaksThePipeline) {
  // aggregate below a select is a pipeline breaker: the select chain above
  // it must not swallow the aggregate.
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      std::make_shared<SelectNode>(
          ScanFact(),
          ConjunctiveFilter::And({Predicate::Lt("v", int64_t{90})})),
      std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}});
  PlanNodePtr select_above = std::make_shared<SelectNode>(
      agg, ConjunctiveFilter::And({Predicate::Gt("total", int64_t{0})}));
  PlanNodePtr fused = FusePipelines(select_above);
  // The top select alone is not a chain; the bottom select+aggregate is.
  ASSERT_EQ(fused->op(), PlanOp::kSelect);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kFusedPipeline);
}

TEST_F(FusedPipelineTest, BuildSidesAreRewrittenRecursively) {
  // A fusable select chain on the *build* side must fuse independently.
  PlanNodePtr build = std::make_shared<SelectNode>(
      std::make_shared<SelectNode>(
          ScanDim(),
          ConjunctiveFilter::And({Predicate::Gt("key", int64_t{2})})),
      ConjunctiveFilter::And({Predicate::Lt("key", int64_t{9})}));
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      build, ScanFact(), "key", "fk", spec);
  PlanNodePtr fused = FusePipelines(join);
  // join->scan(probe) is itself a 1-member "chain" — too short; but the join
  // with its probe scan forms a 1-join chain of size 1... the join alone
  // does not fuse (size < 2), so the root stays a join with a fused build.
  ASSERT_EQ(fused->op(), PlanOp::kJoin);
  EXPECT_EQ(fused->children()[0]->op(), PlanOp::kFusedPipeline);
}

// ---------------------------------------------------------------------------
// Parity: fused vs unfused, across strategies / backends / DoP
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, StarQueryParityAcrossDop) {
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kMorselParallel}) {
    for (int threads : ThreadCounts()) {
      ExpectFusionParity(db_, StarPlan(), Strategy::kCpuOnly, backend,
                         threads);
      if (backend == KernelBackend::kMorselParallel) {
        ExpectFusionParity(db_, StarPlan(), Strategy::kDataDrivenChopping,
                           backend, threads);
      }
    }
  }
}

TEST_F(FusedPipelineTest, FilterOnlyChainParity) {
  // select -> select -> scan, no join, no aggregate: materializing terminal.
  PlanNodePtr plan = std::make_shared<SelectNode>(
      std::make_shared<SelectNode>(
          ScanFact(),
          ConjunctiveFilter::And({Predicate::Gt("v", int64_t{20})})),
      ConjunctiveFilter::And({Predicate::Lt("v", int64_t{70})}));
  ASSERT_EQ(CountFusedNodes(FusePipelines(plan)), 1u);
  TablePtr fused = ExpectFusionParity(db_, plan, Strategy::kCpuOnly,
                                      KernelBackend::kMorselParallel, 2);
  ASSERT_NE(fused, nullptr);
  EXPECT_GT(fused->num_rows(), 0u);
}

TEST_F(FusedPipelineTest, AllPassAndAllFailPredicates) {
  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {-1, 1000},  // all pass
           {500, 400},  // all fail -> empty pipeline output
       }) {
    PlanNodePtr plan = StarPlan(lo, hi);
    for (int threads : {1, 7}) {
      TablePtr fused = ExpectFusionParity(db_, plan, Strategy::kCpuOnly,
                                          KernelBackend::kMorselParallel, threads);
      ASSERT_NE(fused, nullptr);
      if (lo > hi) {
        EXPECT_EQ(fused->num_rows(), 0u);
      }
    }
  }
}

TEST_F(FusedPipelineTest, EmptySourceTable) {
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  ASSERT_TRUE(fact->AddColumn(std::make_shared<Int32Column>(
                                  "fk", std::vector<int32_t>{}))
                  .ok());
  ASSERT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::vector<int32_t>{}))
          .ok());
  ASSERT_TRUE(db->AddTable(fact).ok());
  auto dim = std::make_shared<Table>("dim");
  ASSERT_TRUE(dim->AddColumn(std::make_shared<Int32Column>(
                                 "key", std::vector<int32_t>{1, 2}))
                  .ok());
  auto name = StringColumn::FromDictionary("name", {"a", "b"});
  name->AppendCode(0);
  name->AppendCode(1);
  ASSERT_TRUE(dim->AddColumn(std::move(name)).ok());
  ASSERT_TRUE(db->AddTable(dim).ok());

  PlanNodePtr select = std::make_shared<SelectNode>(
      std::make_shared<ScanNode>(db->GetTable("fact").value(),
                                 std::vector<std::string>{"fk", "v"}),
      ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      std::make_shared<ScanNode>(db->GetTable("dim").value(),
                                 std::vector<std::string>{"key", "name"}),
      std::move(select), "key", "fk", spec);
  TablePtr fused = ExpectFusionParity(db, join, Strategy::kCpuOnly,
                                      KernelBackend::kMorselParallel, 2);
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->num_rows(), 0u);
}

TEST_F(FusedPipelineTest, NoMatchProbesAndDuplicateBuildKeys) {
  // Build side with duplicate keys (1:N matches) plus keys that never match.
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  std::vector<int32_t> fk, v;
  for (int i = 0; i < 500; ++i) {
    fk.push_back(i % 20);  // keys 0..19; build only covers 3..7
    v.push_back(i % 13);
  }
  ASSERT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("fk", std::move(fk))).ok());
  ASSERT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::move(v))).ok());
  ASSERT_TRUE(db->AddTable(fact).ok());
  auto dim = std::make_shared<Table>("dim");
  // Duplicate keys: 3,3,4,5,5,5,6,7 — each probe hit fans out.
  std::vector<int32_t> key{3, 3, 4, 5, 5, 5, 6, 7};
  std::vector<int32_t> weight{1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(
      dim->AddColumn(std::make_shared<Int32Column>("key", std::move(key))).ok());
  ASSERT_TRUE(dim->AddColumn(std::make_shared<Int32Column>("weight",
                                                           std::move(weight)))
                  .ok());
  ASSERT_TRUE(db->AddTable(dim).ok());

  PlanNodePtr select = std::make_shared<SelectNode>(
      std::make_shared<ScanNode>(db->GetTable("fact").value(),
                                 std::vector<std::string>{"fk", "v"}),
      ConjunctiveFilter::And({Predicate::Gt("v", int64_t{1})}));
  JoinOutputSpec spec;
  spec.build_columns = {"weight"};
  spec.build_aliases = {"w"};
  spec.probe_columns = {"v", "fk"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      std::make_shared<ScanNode>(db->GetTable("dim").value(),
                                 std::vector<std::string>{"key", "weight"}),
      std::move(select), "key", "fk", spec);
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      std::move(join), std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "w", "wsum"},
                                 {AggregateFn::kMax, "v", "vmax"}});
  for (int threads : ThreadCounts()) {
    TablePtr fused = ExpectFusionParity(db, agg, Strategy::kCpuOnly,
                                        KernelBackend::kMorselParallel, threads);
    ASSERT_NE(fused, nullptr);
    EXPECT_EQ(fused->num_rows(), 5u);  // probe keys 3..7 survive
  }
}

TEST_F(FusedPipelineTest, ProjectWithComputedColumnsParity) {
  // select -> project(computed) -> aggregate over the computed column.
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{80})}));
  PlanNodePtr project = std::make_shared<ProjectNode>(
      std::move(select), std::vector<std::string>{"fk"},
      std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
          "vw", ArithmeticExpr::Op::kMul, "v", "fk")});
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      std::move(project), std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "vw", "total"}});
  ASSERT_EQ(CountFusedNodes(FusePipelines(agg)), 1u);
  for (int threads : {1, 2, 7}) {
    ExpectFusionParity(db_, agg, Strategy::kCpuOnly, KernelBackend::kMorselParallel,
                       threads);
  }
}

TEST_F(FusedPipelineTest, SsbQueriesParityAllStrategies) {
  SsbGeneratorOptions options;
  options.scale_factor = 0.2;
  static DatabasePtr ssb = GenerateSsbDatabase(options);
  for (const NamedQuery& query : SsbQueries()) {
    Result<PlanNodePtr> plan = query.builder(*ssb);
    ASSERT_TRUE(plan.ok()) << query.name;
    for (Strategy strategy : {Strategy::kCpuOnly, Strategy::kGpuOnly,
                              Strategy::kDataDrivenChopping}) {
      ExpectFusionParity(ssb, plan.value(), strategy,
                         KernelBackend::kMorselParallel, 2, /*morsel_rows=*/4096);
    }
  }
}

// ---------------------------------------------------------------------------
// The fusion win: lower simulated device-heap footprint
// ---------------------------------------------------------------------------

// Q1.1 is the clear footprint win: a filter->project->aggregate chain over
// the fact table with no join builds, so the fused pipeline allocates no
// intermediates at all. (Multi-join queries trade differently: fusion keeps
// every build table resident at once but drops the per-member
// intermediates — see the fig16 fusion-ablation table.)
TEST_F(FusedPipelineTest, FusedSsbQueryHasStrictlyLowerHeapHighWater) {
  SsbGeneratorOptions options;
  options.scale_factor = 0.2;
  DatabasePtr ssb = GenerateSsbDatabase(options);
  Result<NamedQuery> query = SsbQueryByName("Q1.1");
  ASSERT_TRUE(query.ok());

  auto run = [&](bool fusion) -> int64_t {
    KernelScope scope(KernelBackend::kMorselParallel, 2, 4096, fusion);
    EngineContext ctx(TestConfig(), ssb);
    StrategyRunner runner(&ctx, Strategy::kGpuOnly);
    Result<PlanNodePtr> plan = query->builder(*ssb);
    EXPECT_TRUE(plan.ok());
    QueryStatsPtr stats = std::make_shared<QueryStats>();
    Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return stats->heap_high_water();
  };

  const int64_t unfused = run(false);
  const int64_t fused = run(true);
  EXPECT_GT(unfused, 0);
  EXPECT_GT(fused, 0);
  EXPECT_LT(fused, unfused)
      << "fused heap high-water must be strictly lower";
}

TEST_F(FusedPipelineTest, FusedNodeChargesOnlyBuildTables) {
  PlanNodePtr fused = FusePipelines(StarPlan());
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  TablePtr fact = db_->GetTable("fact").value();
  TablePtr dim = db_->GetTable("dim").value();
  // The fused node charges 2x the build input bytes — and nothing for the
  // (much larger) source input.
  const size_t bytes = fused->IntermediateDeviceBytes({fact, dim});
  EXPECT_EQ(bytes, 2 * dim->data_bytes());
  // The unfused select alone would charge input + input/4 on fact.
  PlanNodePtr select = std::make_shared<SelectNode>(
      ScanFact(), ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})}));
  EXPECT_GT(select->IntermediateDeviceBytes({fact}), bytes);
}

// ---------------------------------------------------------------------------
// Modeled charge: the one pass the fused kernel makes
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, FilteredPipelineReportsItsOnePassWork) {
  KernelScope scope(KernelBackend::kMorselParallel, 2, 16, /*fusion=*/true);
  PlanNodePtr fused = FusePipelines(StarPlan(10, 60));
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  TablePtr fact = ScanFact()->ComputeResult({}).value();
  TablePtr dim = ScanDim()->ComputeResult({}).value();
  Result<KernelOutput> output = fused->ComputeWithWork({fact, dim});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  const std::vector<int32_t>& v =
      static_cast<const Int32Column&>(*fact->GetColumn("v").value()).values();
  const auto kept = static_cast<size_t>(std::count_if(
      v.begin(), v.end(), [](int32_t x) { return x > 10 && x < 60; }));
  ASSERT_LT(kept, fact->num_rows());
  EXPECT_EQ(output->filter_survivors, static_cast<int64_t>(kept));
  // The filter reads the whole source; the probe only the survivors' share.
  EXPECT_EQ(output->work.op_class, OpClass::kJoin);
  EXPECT_EQ(output->work.filter_bytes, fact->data_bytes());
  EXPECT_EQ(output->work.bytes,
            fact->data_bytes() * kept / fact->num_rows() + dim->data_bytes());

  // Without a filter member the work is the default: every input byte at
  // the pipeline's class rate.
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"v"};
  PlanNodePtr unfiltered = FusePipelines(std::make_shared<AggregateNode>(
      std::make_shared<JoinNode>(ScanDim(), ScanFact(), "key", "fk", spec),
      std::vector<std::string>{"name"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}}));
  ASSERT_EQ(unfiltered->op(), PlanOp::kFusedPipeline);
  output = unfiltered->ComputeWithWork({fact, dim});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->filter_survivors, -1);
  EXPECT_EQ(output->work.filter_bytes, 0u);
  EXPECT_EQ(output->work.bytes, unfiltered->InputBytes({fact, dim}));
}

/// A plan subtree's result, evaluated on the host: the inputs the engine
/// hands the subtree's parent.
TablePtr EvaluateOnHost(const PlanNodePtr& node) {
  std::vector<TablePtr> inputs;
  for (const PlanNodePtr& child : node->children()) {
    inputs.push_back(EvaluateOnHost(child));
  }
  return node->ComputeResult(inputs).value();
}

/// Every throughput 1000x below the defaults: a query's kernel windows are
/// then thousands of modeled micros each, so the integer micros the clock
/// keeps resolve far finer than 1%. A uniform rate scale leaves the ratio
/// of two charges unchanged.
SystemConfig SlowRateConfig() {
  SystemConfig config;
  config.simulate_time = false;
  for (ThroughputTable* table :
       {&config.cpu_throughput, &config.gpu_throughput}) {
    for (double* mbps : {&table->scan_mbps, &table->join_mbps,
                         &table->aggregate_mbps, &table->sort_mbps,
                         &table->project_mbps, &table->materialize_mbps}) {
      *mbps /= 1000;
    }
  }
  config.pcie_mbps /= 1000;
  return config;
}

// The invariant of fusion on the modeled clock: a fused plan is charged no
// more than its unfused chain. Charging the whole source and build bytes at
// the join rate broke it for Q1.1-Q1.3 (~2.3x), whose filter drops most of
// lineorder before the probe. Pipelines without a filter keep the
// per-operator rule exactly: each kernel's input bytes at its class rate.
TEST(FusedChargeTest, FusedSsbQueriesAreChargedNoMoreThanUnfused) {
  SsbGeneratorOptions options;
  options.scale_factor = 0.2;
  static DatabasePtr ssb = GenerateSsbDatabase(options);
  const SystemConfig config = SlowRateConfig();
  for (Strategy strategy : {Strategy::kCpuOnly, Strategy::kGpuOnly}) {
    const ProcessorKind processor = strategy == Strategy::kCpuOnly
                                        ? ProcessorKind::kCpu
                                        : ProcessorKind::kGpu;
    // A query alone on the host runs each CPU kernel on every slot.
    const int slots =
        processor == ProcessorKind::kCpu ? config.cpu_workers : 1;
    for (const NamedQuery& query : SsbQueries()) {
      SCOPED_TRACE(query.name + " " + StrategyToString(strategy));
      Result<PlanNodePtr> raw = query.builder(*ssb);
      ASSERT_TRUE(raw.ok());
      auto charge = [&](bool fusion, PlanNodePtr* plan,
                        QueryStatsPtr* stats) -> int64_t {
        FusionScope scope(fusion);
        EngineContext ctx(config, ssb);
        StrategyRunner runner(&ctx, strategy);
        *plan = runner.PreparePlan(raw.value());
        *stats = std::make_shared<QueryStats>();
        EXPECT_TRUE(runner.RunQuery(*plan, *stats).ok());
        return ctx.simulator().clock().total_charged_micros();
      };
      PlanNodePtr plan;
      QueryStatsPtr stats;
      const int64_t unfused = charge(false, &plan, &stats);
      const int64_t fused = charge(true, &plan, &stats);
      ASSERT_GT(CountFusedNodes(plan), 0u);
      EXPECT_LE(static_cast<double>(fused), 1.01 * static_cast<double>(unfused))
          << "fused " << fused << " us, unfused " << unfused << " us";

      // Every kernel without a filter pass is charged its input bytes at its
      // class rate, divided by the slots it ran on.
      Simulator estimator(config);
      VisitPlanPostOrder(plan, [&](const PlanNodePtr& node) {
        NodeStats* node_stats = stats->Find(node.get());
        ASSERT_NE(node_stats, nullptr);
        if (node->op() == PlanOp::kScan ||
            node_stats->filter_survivors.load() >= 0) {
          return;
        }
        ASSERT_EQ(node_stats->ran_on.load(),
                  processor == ProcessorKind::kGpu ? 1 : 0);
        std::vector<TablePtr> inputs;
        for (const PlanNodePtr& child : node->children()) {
          inputs.push_back(EvaluateOnHost(child));
        }
        const auto expected = static_cast<int64_t>(
            estimator.EstimateComputeMicros(processor, node->op_class(),
                                            node->InputBytes(inputs)) /
            slots);
        EXPECT_EQ(processor == ProcessorKind::kGpu
                      ? node_stats->gpu_kernel_micros.load()
                      : node_stats->cpu_kernel_micros.load(),
                  expected)
            << node->label();
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Stats attribution and EXPLAIN integration
// ---------------------------------------------------------------------------

TEST_F(FusedPipelineTest, StatsRegisteredAgainstFusedPlanAreAttributed) {
  KernelScope scope(KernelBackend::kMorselParallel, 2, 256, /*fusion=*/true);
  EngineContext ctx(TestConfig(), db_);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  PlanNodePtr fused = FusePipelines(StarPlan());
  auto stats = std::make_shared<QueryStats>();
  ASSERT_TRUE(runner.RunQuery(fused, stats).ok());
  NodeStats* node = stats->Find(fused.get());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->op, "fused_pipeline");
  EXPECT_GE(node->rows_in.load(), 0);
  EXPECT_GE(node->rows_out.load(), 0);
}

TEST_F(FusedPipelineTest, RawPlanWithEmptyStatsAttributesFusedNode) {
  // The runner fuses the raw plan and the executor registers the fused
  // shape, so attribution lands on the pipeline that actually ran.
  KernelScope scope(KernelBackend::kMorselParallel, 2, 256, /*fusion=*/true);
  EngineContext ctx(TestConfig(), db_);
  StrategyRunner runner(&ctx, Strategy::kCpuOnly);
  auto stats = std::make_shared<QueryStats>();
  ASSERT_TRUE(runner.RunQuery(StarPlan(), stats).ok());
  ASSERT_FALSE(stats->nodes().empty());
  const NodeStats& root = *stats->nodes().front();
  EXPECT_EQ(root.op, "fused_pipeline");
  EXPECT_GT(root.rows_in.load(), 0);
  EXPECT_GE(root.rows_out.load(), 0);
  EXPECT_EQ(root.ran_on.load(), 0);  // CPU
}

TEST_F(FusedPipelineTest, StaticValidationDeclinesUnknownColumns) {
  // A select on a column the scan does not provide: the rewrite must leave
  // the chain unfused, and both paths report the same error.
  PlanNodePtr bad_select = std::make_shared<SelectNode>(
      ScanFact({"fk", "v"}),
      ConjunctiveFilter::And({Predicate::Lt("missing", int64_t{5})}));
  PlanNodePtr agg = std::make_shared<AggregateNode>(
      bad_select, std::vector<std::string>{"fk"},
      std::vector<AggregateSpec>{{AggregateFn::kSum, "v", "total"}});
  EXPECT_EQ(CountFusedNodes(FusePipelines(agg)), 0u);
  Status unfused_status, fused_status;
  {
    KernelScope scope(KernelBackend::kMorselParallel, 2, 256, /*fusion=*/false);
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kCpuOnly);
    unfused_status = runner.RunQuery(agg).status();
  }
  {
    KernelScope scope(KernelBackend::kMorselParallel, 2, 256, /*fusion=*/true);
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kCpuOnly);
    fused_status = runner.RunQuery(agg).status();
  }
  EXPECT_FALSE(unfused_status.ok());
  EXPECT_FALSE(fused_status.ok());
  EXPECT_EQ(unfused_status.code(), fused_status.code());
}

TEST_F(FusedPipelineTest, RuntimeReplayPreservesQueryErrors) {
  // The build child's columns are unknowable statically, so a join whose
  // output spec names a column missing from the build table *does* fuse —
  // runtime binding then declines, and the member-replay fallback must
  // surface the exact error the unfused join kernel reports.
  JoinOutputSpec spec;
  spec.build_columns = {"no_such_column"};
  spec.probe_columns = {"v"};
  PlanNodePtr join = std::make_shared<JoinNode>(
      ScanDim(),
      std::make_shared<SelectNode>(
          ScanFact(),
          ConjunctiveFilter::And({Predicate::Lt("v", int64_t{50})})),
      "key", "fk", spec);
  PlanNodePtr fused_plan = FusePipelines(join);
  ASSERT_EQ(CountFusedNodes(fused_plan), 1u);  // fuses, replays at runtime
  Status unfused_status, fused_status;
  {
    KernelScope scope(KernelBackend::kMorselParallel, 2, 256, /*fusion=*/false);
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kCpuOnly);
    unfused_status = runner.RunQuery(join).status();
  }
  {
    KernelScope scope(KernelBackend::kMorselParallel, 2, 256, /*fusion=*/true);
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kCpuOnly);
    fused_status = runner.RunQuery(join).status();
  }
  EXPECT_FALSE(unfused_status.ok());
  EXPECT_FALSE(fused_status.ok());
  EXPECT_EQ(unfused_status.code(), fused_status.code());
}

}  // namespace
}  // namespace hetdb
