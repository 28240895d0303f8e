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
#include <map>
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
// Modeled charge: each column a fused kernel reads, for the rows it reads
// ---------------------------------------------------------------------------

/// A plan subtree's result, evaluated on the host: the inputs the engine
/// hands the subtree's parent.
TablePtr EvaluateOnHost(const PlanNodePtr& node) {
  std::vector<TablePtr> inputs;
  for (const PlanNodePtr& child : node->children()) {
    inputs.push_back(EvaluateOnHost(child));
  }
  return node->ComputeResult(inputs).value();
}

/// Bytes of `rows` values of `type`: a read charged at its column's width.
size_t ValueBytes(DataType type, size_t rows) {
  return DataTypeWidth(type) * rows;
}

void ExpectStages(const KernelWork& work,
                  const std::vector<KernelStage>& expected) {
  ASSERT_EQ(work.stages.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(work.stages[i].op_class, expected[i].op_class) << "stage " << i;
    EXPECT_EQ(work.stages[i].bytes, expected[i].bytes) << "stage " << i;
  }
}

TEST_F(FusedPipelineTest, FilteredPipelineReportsItsOnePassWork) {
  KernelScope scope(KernelBackend::kMorselParallel, 2, 16, /*fusion=*/true);
  PlanNodePtr fused = FusePipelines(StarPlan(10, 60));
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  TablePtr fact = ScanFact()->ComputeResult({}).value();
  TablePtr dim = ScanDim()->ComputeResult({}).value();
  Result<KernelOutput> output = fused->ComputeWithWork({fact, dim});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  const size_t rows = fact->num_rows();
  const std::vector<int32_t>& v =
      static_cast<const Int32Column&>(*fact->GetColumn("v").value()).values();
  const auto kept = static_cast<size_t>(std::count_if(
      v.begin(), v.end(), [](int32_t x) { return x > 10 && x < 60; }));
  ASSERT_LT(kept, rows);
  EXPECT_EQ(output->filter_survivors, static_cast<int64_t>(kept));
  EXPECT_EQ(output->probes, std::vector<int64_t>{static_cast<int64_t>(kept)});
  // The filter reads v for every row; the probe reads fk for the survivors
  // plus the whole build side; every survivor matches one dim row, and the
  // aggregate reads its group key (name) and its input (v) per match.
  ExpectStages(output->work,
               {{OpClass::kScan, ValueBytes(DataType::kInt32, rows)},
                {OpClass::kJoin,
                 ValueBytes(DataType::kInt32, kept) + dim->data_bytes()},
                {OpClass::kAggregate, ValueBytes(DataType::kString, kept) +
                                          ValueBytes(DataType::kInt32, kept)}});

  // Without a filter member there is no filter stage, and the probe reads
  // fk for every source row.
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
  EXPECT_EQ(output->probes, std::vector<int64_t>{static_cast<int64_t>(rows)});
  ExpectStages(output->work,
               {{OpClass::kJoin,
                 ValueBytes(DataType::kInt32, rows) + dim->data_bytes()},
                {OpClass::kAggregate, ValueBytes(DataType::kString, rows) +
                                          ValueBytes(DataType::kInt32, rows)}});
}

TEST_F(FusedPipelineTest, SecondProbeKeyIsChargedOnlyForFirstLevelMatches) {
  KernelScope scope(KernelBackend::kMorselParallel, 2, 16, /*fusion=*/true);
  // Level 0 keeps the fact rows whose fk is 1 or 2; level 1 probes dim again
  // with v, and the aggregate counts the matches per level-1 name.
  PlanNodePtr selective_dim = std::make_shared<SelectNode>(
      ScanDim(), ConjunctiveFilter::And({Predicate::Lt("key", int64_t{3})}));
  JoinOutputSpec first;
  first.build_columns = {"name"};
  first.probe_columns = {"v"};
  JoinOutputSpec second;
  second.build_columns = {"name"};
  second.build_aliases = {"v_name"};
  second.probe_columns = {"name"};
  PlanNodePtr plan = std::make_shared<AggregateNode>(
      std::make_shared<JoinNode>(
          ScanDim(),
          std::make_shared<JoinNode>(selective_dim, ScanFact(), "key", "fk",
                                     first),
          "key", "v", second),
      std::vector<std::string>{"v_name"},
      std::vector<AggregateSpec>{{AggregateFn::kCount, "", "n"}});
  PlanNodePtr fused = FusePipelines(plan);
  ASSERT_EQ(fused->op(), PlanOp::kFusedPipeline);
  ASSERT_EQ(static_cast<const FusedPipelineNode&>(*fused).num_joins(), 2u);

  TablePtr fact = ScanFact()->ComputeResult({}).value();
  TablePtr small = EvaluateOnHost(selective_dim);
  TablePtr dim = ScanDim()->ComputeResult({}).value();
  Result<KernelOutput> output = fused->ComputeWithWork({fact, small, dim});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ExpectBitIdenticalTables(EvaluateOnHost(plan), output->table);

  const std::vector<int32_t>& fk =
      static_cast<const Int32Column&>(*fact->GetColumn("fk").value()).values();
  const std::vector<int32_t>& v =
      static_cast<const Int32Column&>(*fact->GetColumn("v").value()).values();
  size_t first_matches = 0;
  size_t final_matches = 0;
  for (size_t i = 0; i < fact->num_rows(); ++i) {
    if (fk[i] >= 3) continue;
    ++first_matches;
    if (v[i] >= 1 && v[i] <= 10) ++final_matches;
  }
  ASSERT_LT(first_matches, fact->num_rows() / 4);
  ASSERT_GT(final_matches, 0u);
  EXPECT_EQ(output->filter_survivors, -1);
  EXPECT_EQ(output->probes,
            (std::vector<int64_t>{static_cast<int64_t>(fact->num_rows()),
                                  static_cast<int64_t>(first_matches)}));
  // v, the level-1 key, is read for the level-0 matches only, not for every
  // fact row as a whole-input charge would have it.
  ExpectStages(
      output->work,
      {{OpClass::kJoin, ValueBytes(DataType::kInt32, fact->num_rows()) +
                            ValueBytes(DataType::kInt32, first_matches) +
                            small->data_bytes() + dim->data_bytes()},
       {OpClass::kAggregate, ValueBytes(DataType::kString, final_matches)}});
}

TEST_F(FusedPipelineTest, ReplayedMembersAreChargedAsUnfusedOperators) {
  // A filter on a computed column is not source-bound, so runtime binding
  // declines and the members run one at a time: each one is charged its
  // input bytes at its class rate, as the unfused operator is.
  PlanNodePtr project = std::make_shared<ProjectNode>(
      ScanFact(), std::vector<std::string>{"fk"},
      std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
          "vw", ArithmeticExpr::Op::kMul, "v", "fk")});
  PlanNodePtr select = std::make_shared<SelectNode>(
      project, ConjunctiveFilter::And({Predicate::Lt("vw", int64_t{100})}));
  FusedPipelineNode fused({ScanFact()}, {project, select});
  TablePtr fact = ScanFact()->ComputeResult({}).value();
  TablePtr projected = project->ComputeResult({fact}).value();
  Result<KernelOutput> output = fused.ComputeWithWork({fact});
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  ExpectBitIdenticalTables(select->ComputeResult({projected}).value(),
                           output->table);
  EXPECT_EQ(output->filter_survivors, -1);
  EXPECT_TRUE(output->probes.empty());
  ExpectStages(output->work,
               {{OpClass::kProject, project->InputBytes({fact})},
                {OpClass::kScan, select->InputBytes({projected})}});
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

/// The single-slot micros the stage rule charges `node` on `processor`,
/// derived without the fused kernel: the rows that reach each stage are the
/// rows the unfused member chain, evaluated on the host, feeds the member
/// that reads them; the columns come from the members' definitions.
double StageRuleMicros(const FusedPipelineNode& node,
                       const Simulator& estimator, ProcessorKind processor) {
  // What each pipeline column reads: one physical column, or a computed
  // column's inputs. `id` names the table a column lives in and its name.
  struct Read {
    std::string id;
    DataType type;
  };
  auto add_unique = [](std::vector<Read>* list, const std::vector<Read>& more) {
    for (const Read& read : more) {
      if (std::none_of(list->begin(), list->end(),
                       [&](const Read& r) { return r.id == read.id; })) {
        list->push_back(read);
      }
    }
  };
  std::map<std::string, std::vector<Read>> reads;
  TablePtr current = EvaluateOnHost(node.children()[0]);
  const size_t source_rows = current->num_rows();
  for (const ColumnPtr& column : current->columns()) {
    reads[column->name()] = {{"source." + column->name(), column->type()}};
  }
  std::vector<Read> filter;
  size_t probe_bytes = 0;
  std::vector<Read> terminal;
  size_t terminal_rows = 0;
  size_t level = 0;
  for (const PlanNodePtr& member : node.members()) {
    std::vector<TablePtr> inputs = {current};
    switch (member->op()) {
      case PlanOp::kSelect:
        for (const Disjunction& disjunction :
             static_cast<const SelectNode&>(*member).filter().conjuncts) {
          for (const Predicate& atom : disjunction.atoms) {
            add_unique(&filter, reads.at(atom.column));
          }
        }
        break;
      case PlanOp::kJoin: {
        const auto& join = static_cast<const JoinNode&>(*member);
        TablePtr build = EvaluateOnHost(node.children()[1 + level]);
        probe_bytes += ValueBytes(reads.at(join.probe_key()).front().type,
                                  current->num_rows()) +
                       build->data_bytes();
        const JoinOutputSpec& spec = join.output_spec();
        std::map<std::string, std::vector<Read>> next;
        for (size_t i = 0; i < spec.build_columns.size(); ++i) {
          const std::string& name = spec.build_columns[i];
          next[spec.build_aliases.empty() ? name : spec.build_aliases[i]] = {
              {"level" + std::to_string(level) + "." + name,
               build->GetColumn(name).value()->type()}};
        }
        for (size_t i = 0; i < spec.probe_columns.size(); ++i) {
          const std::string& name = spec.probe_columns[i];
          next[spec.probe_aliases.empty() ? name : spec.probe_aliases[i]] =
              reads.at(name);
        }
        reads = std::move(next);
        inputs = {build, current};
        ++level;
        break;
      }
      case PlanOp::kProject: {
        const auto& project = static_cast<const ProjectNode&>(*member);
        std::map<std::string, std::vector<Read>> next;
        for (const std::string& name : project.keep_columns()) {
          next[name] = reads.at(name);
        }
        for (const ArithmeticExpr& expr : project.expressions()) {
          std::vector<Read>& computed = next[expr.output_name];
          add_unique(&computed, reads.at(expr.left_column));
          if (!expr.right_column.empty()) {
            add_unique(&computed, reads.at(expr.right_column));
          }
        }
        reads = std::move(next);
        break;
      }
      case PlanOp::kAggregate: {
        const auto& agg = static_cast<const AggregateNode&>(*member);
        for (const std::string& name : agg.group_by()) {
          add_unique(&terminal, reads.at(name));
        }
        for (const AggregateSpec& spec : agg.aggregates()) {
          if (!spec.input_column.empty()) {
            add_unique(&terminal, reads.at(spec.input_column));
          }
        }
        terminal_rows = current->num_rows();
        break;
      }
      default:
        ADD_FAILURE() << "unfusable member " << member->label();
    }
    current = member->ComputeResult(inputs).value();
  }
  if (node.members().back()->op() != PlanOp::kAggregate) {
    for (const ColumnPtr& column : current->columns()) {
      add_unique(&terminal, reads.at(column->name()));
    }
    terminal_rows = current->num_rows();
  }
  double micros = 0;
  if (!filter.empty()) {
    size_t bytes = 0;
    for (const Read& read : filter) bytes += ValueBytes(read.type, source_rows);
    micros += estimator.EstimateComputeMicros(processor, OpClass::kScan, bytes);
  }
  if (level > 0) {
    micros +=
        estimator.EstimateComputeMicros(processor, OpClass::kJoin, probe_bytes);
  }
  size_t bytes = 0;
  for (const Read& read : terminal) bytes += ValueBytes(read.type, terminal_rows);
  return micros + estimator.EstimateComputeMicros(
                      processor, node.members().back()->op_class(), bytes);
}

/// Runs `raw` unfused and fused under `strategy` on `SlowRateConfig` and
/// checks the invariant of fusion on the modeled clock, a fused plan charged
/// no more than its unfused chain, and the two charge rules exactly: every
/// unfused kernel its input bytes at its class rate, every fused kernel the
/// stage rule's `StageRuleMicros`, each divided by the slots it ran on.
void ExpectFusedChargeRules(const DatabasePtr& db, const PlanNodePtr& raw,
                            Strategy strategy) {
  const SystemConfig config = SlowRateConfig();
  const ProcessorKind processor = strategy == Strategy::kCpuOnly
                                      ? ProcessorKind::kCpu
                                      : ProcessorKind::kGpu;
  // A query alone on the host runs each CPU kernel on every slot.
  const int slots = processor == ProcessorKind::kCpu ? config.cpu_workers : 1;
  auto charge = [&](bool fusion, PlanNodePtr* plan,
                    QueryStatsPtr* stats) -> int64_t {
    FusionScope scope(fusion);
    EngineContext ctx(config, db);
    StrategyRunner runner(&ctx, strategy);
    *plan = runner.PreparePlan(raw);
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

  Simulator estimator(config);
  VisitPlanPostOrder(plan, [&](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kScan) return;
    NodeStats* node_stats = stats->Find(node.get());
    ASSERT_NE(node_stats, nullptr);
    ASSERT_EQ(node_stats->ran_on.load(),
              processor == ProcessorKind::kGpu ? 1 : 0);
    double micros = 0;
    if (node->op() == PlanOp::kFusedPipeline) {
      micros = StageRuleMicros(static_cast<const FusedPipelineNode&>(*node),
                               estimator, processor);
    } else {
      std::vector<TablePtr> inputs;
      for (const PlanNodePtr& child : node->children()) {
        inputs.push_back(EvaluateOnHost(child));
      }
      micros = estimator.EstimateComputeMicros(processor, node->op_class(),
                                               node->InputBytes(inputs));
    }
    EXPECT_EQ(processor == ProcessorKind::kGpu
                  ? node_stats->gpu_kernel_micros.load()
                  : node_stats->cpu_kernel_micros.load(),
              static_cast<int64_t>(micros / slots))
        << node->label();
  });
}

TEST(FusedChargeTest, FusedSsbQueriesAreChargedNoMoreThanUnfused) {
  SsbGeneratorOptions options;
  options.scale_factor = 0.2;
  static DatabasePtr ssb = GenerateSsbDatabase(options);
  for (Strategy strategy : {Strategy::kCpuOnly, Strategy::kGpuOnly}) {
    for (const NamedQuery& query : SsbQueries()) {
      SCOPED_TRACE(query.name + " " + StrategyToString(strategy));
      Result<PlanNodePtr> raw = query.builder(*ssb);
      ASSERT_TRUE(raw.ok());
      ExpectFusedChargeRules(ssb, raw.value(), strategy);
    }
  }
}

// A filtered pipeline with no join and no aggregate: its survivors are
// charged at the project rate, as the unfused project pays, not at the scan
// rate a pipeline-wide class would give them.
TEST(FusedChargeTest, SelectThenProjectIsChargedNoMoreThanUnfused) {
  DatabasePtr db = MakeTinyDb();
  PlanNodePtr plan = std::make_shared<ProjectNode>(
      std::make_shared<SelectNode>(
          std::make_shared<ScanNode>(db->GetTable("fact").value(),
                                     std::vector<std::string>{"fk", "v"}),
          ConjunctiveFilter::And({Predicate::Lt("v", int64_t{60})})),
      std::vector<std::string>{"fk"},
      std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
          "vw", ArithmeticExpr::Op::kMul, "v", "fk")});
  for (Strategy strategy : {Strategy::kCpuOnly, Strategy::kGpuOnly}) {
    SCOPED_TRACE(StrategyToString(strategy));
    ExpectFusedChargeRules(db, plan, strategy);
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
