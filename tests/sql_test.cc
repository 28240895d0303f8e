#include <gtest/gtest.h>

#include "operators/fused_pipeline.h"
#include "placement/strategy_runner.h"
#include "sql/lexer.h"
#include "sql/planner.h"
#include "sql/parser.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"
#include "tests/test_util.h"

namespace hetdb {
namespace {

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesKeywordsIdentifiersAndLiterals) {
  auto tokens = Tokenize("SELECT lo_revenue FROM lineorder WHERE x >= 1.5");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_EQ(t.size(), 9u);  // incl. end token
  EXPECT_TRUE(t[0].IsKeyword("SELECT"));
  EXPECT_EQ(t[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(t[1].text, "lo_revenue");
  EXPECT_TRUE(t[2].IsKeyword("FROM"));
  EXPECT_TRUE(t[4].IsKeyword("WHERE"));
  EXPECT_TRUE(t[6].IsSymbol(">="));
  EXPECT_EQ(t[7].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(t[7].float_value, 1.5);
  EXPECT_EQ(t[8].kind, TokenKind::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value()[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens.value()[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens.value()[2].IsKeyword("WHERE"));
}

TEST(LexerTest, StringLiteralsAndErrors) {
  auto ok = Tokenize("WHERE c = 'MFGR#12'");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()[3].kind, TokenKind::kString);
  EXPECT_EQ(ok.value()[3].text, "MFGR#12");
  EXPECT_EQ(Tokenize("'oops").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Tokenize("a ? b").status().code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, TwoCharSymbols) {
  auto tokens = Tokenize("a <> b != c <= d >= e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value()[1].IsSymbol("<>"));
  EXPECT_TRUE(tokens.value()[3].IsSymbol("<>"));  // != normalizes to <>
  EXPECT_TRUE(tokens.value()[5].IsSymbol("<="));
  EXPECT_TRUE(tokens.value()[7].IsSymbol(">="));
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, ParsesFullStatement) {
  auto parsed = ParseSelect(
      "SELECT d_year, sum(lo_extendedprice * lo_discount) AS revenue "
      "FROM lineorder, date "
      "WHERE lo_orderdate = d_datekey AND d_year = 1993 "
      "AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25 "
      "GROUP BY d_year ORDER BY revenue DESC LIMIT 10");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const SelectStatement& stmt = parsed.value();
  ASSERT_EQ(stmt.items.size(), 2u);
  EXPECT_EQ(stmt.items[0].kind, SelectItem::Kind::kExpression);
  EXPECT_EQ(stmt.items[1].kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(stmt.items[1].fn, AggregateFn::kSum);
  EXPECT_TRUE(stmt.items[1].expr.has_arithmetic);
  EXPECT_EQ(stmt.items[1].OutputName(), "revenue");
  ASSERT_EQ(stmt.tables.size(), 2u);
  ASSERT_EQ(stmt.where.size(), 4u);
  EXPECT_EQ(stmt.where[0].kind, SqlPredicate::Kind::kColumnEq);
  EXPECT_EQ(stmt.where[2].kind, SqlPredicate::Kind::kBetween);
  ASSERT_EQ(stmt.group_by.size(), 1u);
  ASSERT_EQ(stmt.order_by.size(), 1u);
  EXPECT_FALSE(stmt.order_by[0].ascending);
  EXPECT_EQ(stmt.limit, 10u);
}

TEST(ParserTest, ParsesCountStarAndInList) {
  auto parsed = ParseSelect(
      "SELECT c_city, count(*) FROM customer "
      "WHERE c_city IN ('UNITED KI1', 'UNITED KI5') GROUP BY c_city");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().items[1].fn, AggregateFn::kCount);
  EXPECT_TRUE(parsed.value().items[1].expr.column.empty());
  ASSERT_EQ(parsed.value().where.size(), 1u);
  EXPECT_EQ(parsed.value().where[0].kind, SqlPredicate::Kind::kIn);
  EXPECT_EQ(parsed.value().where[0].in_list.size(), 2u);
}

TEST(ParserTest, QualifiedNamesAreAccepted) {
  auto parsed = ParseSelect(
      "SELECT lineorder.lo_revenue FROM lineorder WHERE lineorder.lo_tax > 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().items[0].expr.column, "lo_revenue");
  EXPECT_EQ(parsed.value().where[0].column, "lo_tax");
}

TEST(ParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t nonsense").ok());
  EXPECT_FALSE(ParseSelect("SELECT sum(a FROM t").ok());
}

TEST(ParserTest, ParseStatementWithoutExplainIsPlain) {
  auto parsed = ParseStatement("SELECT lo_revenue FROM lineorder");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().explain, ExplainMode::kNone);
  ASSERT_EQ(parsed.value().select.items.size(), 1u);
  EXPECT_EQ(parsed.value().select.items[0].expr.column, "lo_revenue");
}

TEST(ParserTest, ParseStatementRecognizesExplain) {
  auto parsed = ParseStatement(
      "EXPLAIN SELECT lo_revenue FROM lineorder WHERE lo_tax > 5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().explain, ExplainMode::kPlan);
  // The wrapped select parses the same as the bare statement.
  ASSERT_EQ(parsed.value().select.where.size(), 1u);
  EXPECT_EQ(parsed.value().select.where[0].column, "lo_tax");
}

TEST(ParserTest, ParseStatementRecognizesExplainAnalyze) {
  auto parsed = ParseStatement(
      "explain analyze select lo_revenue from lineorder");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().explain, ExplainMode::kAnalyze);
  EXPECT_EQ(parsed.value().select.items[0].expr.column, "lo_revenue");
}

TEST(ParserTest, ParseStatementRejectsBareExplain) {
  EXPECT_FALSE(ParseStatement("EXPLAIN").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN ANALYZE").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN nonsense").ok());
}

// --- Planner + end-to-end ------------------------------------------------------

class SqlEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SsbGeneratorOptions options;
    options.scale_factor = 0.2;
    db_ = GenerateSsbDatabase(options);
  }
  static void TearDownTestSuite() { db_.reset(); }

  TablePtr Run(const std::string& sql) {
    Result<PlanNodePtr> plan = PlanSql(sql, *db_);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status();
    if (!plan.ok()) return nullptr;
    EngineContext ctx(TestConfig(), db_);
    StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
    Result<TablePtr> result = runner.RunQuery(plan.value());
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result.value() : nullptr;
  }

  static DatabasePtr db_;
};

DatabasePtr SqlEndToEndTest::db_;

TEST_F(SqlEndToEndTest, SingleTableAggregation) {
  TablePtr result = Run(
      "SELECT sum(lo_revenue) AS total, count(*) AS n FROM lineorder "
      "WHERE lo_discount BETWEEN 4 AND 6");
  ASSERT_NE(result, nullptr);
  ASSERT_EQ(result->num_rows(), 1u);
  // Scalar reference.
  TablePtr lineorder = db_->GetTable("lineorder").value();
  const auto& discount = ColumnCast<Int32Column>(
                             *lineorder->GetColumn("lo_discount").value())
                             .values();
  const auto& revenue = ColumnCast<Int32Column>(
                            *lineorder->GetColumn("lo_revenue").value())
                            .values();
  int64_t total = 0, n = 0;
  for (size_t i = 0; i < discount.size(); ++i) {
    if (discount[i] >= 4 && discount[i] <= 6) {
      total += revenue[i];
      ++n;
    }
  }
  EXPECT_EQ(ColumnCast<Int64Column>(*result->GetColumn("total").value()).value(0),
            total);
  EXPECT_EQ(ColumnCast<Int64Column>(*result->GetColumn("n").value()).value(0),
            n);
}

TEST_F(SqlEndToEndTest, MultiJoinGroupByOrderBy) {
  TablePtr result = Run(
      "SELECT c_nation, d_year, sum(lo_revenue) AS revenue "
      "FROM customer, lineorder, date "
      "WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey "
      "AND c_region = 'ASIA' AND d_year BETWEEN 1992 AND 1994 "
      "GROUP BY c_nation, d_year ORDER BY d_year, revenue DESC LIMIT 20");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->num_rows(), 0u);
  EXPECT_LE(result->num_rows(), 20u);
  // Ordered by year ascending.
  const auto& years =
      ColumnCast<Int32Column>(*result->GetColumn("d_year").value()).values();
  for (size_t i = 1; i < years.size(); ++i) ASSERT_LE(years[i - 1], years[i]);
}

TEST_F(SqlEndToEndTest, ProjectionWithArithmetic) {
  TablePtr result = Run(
      "SELECT lo_orderkey, lo_extendedprice * lo_discount AS charge "
      "FROM lineorder WHERE lo_quantity < 3 ORDER BY charge DESC LIMIT 5");
  ASSERT_NE(result, nullptr);
  ASSERT_LE(result->num_rows(), 5u);
  ASSERT_TRUE(result->HasColumn("charge"));
  const auto& charge =
      ColumnCast<Int64Column>(*result->GetColumn("charge").value()).values();
  for (size_t i = 1; i < charge.size(); ++i) ASSERT_GE(charge[i - 1], charge[i]);
}

TEST_F(SqlEndToEndTest, PlannerErrors) {
  EXPECT_EQ(PlanSql("SELECT nope FROM lineorder", *db_).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(PlanSql("SELECT lo_revenue FROM lineorder, customer", *db_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // no join predicate
  EXPECT_EQ(PlanSql("SELECT lo_revenue, sum(lo_tax) FROM lineorder", *db_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // non-grouped plain column
  EXPECT_EQ(PlanSql("SELECT lo_revenue FROM nosuch", *db_).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SqlEndToEndTest, SameTableColumnEqualityIsResidualFilter) {
  TablePtr result = Run(
      "SELECT count(*) AS n FROM lineorder WHERE lo_orderdate = lo_commitdate");
  ASSERT_NE(result, nullptr);
  // Scalar reference.
  TablePtr lineorder = db_->GetTable("lineorder").value();
  const auto& od = ColumnCast<Int32Column>(
                       *lineorder->GetColumn("lo_orderdate").value())
                       .values();
  const auto& cd = ColumnCast<Int32Column>(
                       *lineorder->GetColumn("lo_commitdate").value())
                       .values();
  int64_t expected = 0;
  for (size_t i = 0; i < od.size(); ++i) {
    if (od[i] == cd[i]) ++expected;
  }
  EXPECT_EQ(ColumnCast<Int64Column>(*result->GetColumn("n").value()).value(0),
            expected);
}

// --- SSB: SQL plans against the hand-built plans ----------------------------

PlanNodePtr PlanSsbSql(const std::string& name, const Database& db) {
  Result<std::string> sql = SsbQuerySql(name);
  EXPECT_TRUE(sql.ok()) << name << ": " << sql.status();
  if (!sql.ok()) return nullptr;
  Result<PlanNodePtr> plan = PlanSql(sql.value(), db);
  EXPECT_TRUE(plan.ok()) << name << ": " << plan.status();
  return plan.ok() ? plan.value() : nullptr;
}

/// True when the subtree rooted at `root` scans `table`.
bool ScansTable(const PlanNodePtr& root, const std::string& table) {
  bool found = false;
  VisitPlanPostOrder(root, [&](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kScan &&
        static_cast<const ScanNode&>(*node).table()->name() == table) {
      found = true;
    }
  });
  return found;
}

TEST_F(SqlEndToEndTest, EverySsbSqlQueryMatchesItsBuilderPlan) {
  for (Strategy strategy :
       {Strategy::kCpuOnly, Strategy::kDataDrivenChopping}) {
    for (bool fusion : {false, true}) {
      SCOPED_TRACE(std::string(StrategyToString(strategy)) +
                   (fusion ? " fusion on" : " fusion off"));
      FusionScope scope(fusion);
      EngineContext ctx(TestConfig(), db_);
      StrategyRunner runner(&ctx, strategy);
      // Data-driven: cache what earlier runs touched, so some operators run
      // on the device.
      runner.RefreshDataPlacement();
      int non_empty = 0;
      for (const NamedQuery& query : SsbQueries()) {
        SCOPED_TRACE(query.name);
        Result<PlanNodePtr> built = query.builder(*db_);
        ASSERT_TRUE(built.ok()) << built.status();
        PlanNodePtr planned = PlanSsbSql(query.name, *db_);
        ASSERT_NE(planned, nullptr);
        Result<TablePtr> expected = runner.RunQuery(built.value());
        ASSERT_TRUE(expected.ok()) << expected.status();
        Result<TablePtr> actual = runner.RunQuery(planned);
        ASSERT_TRUE(actual.ok()) << actual.status();
        if (expected.value()->num_rows() > 0) ++non_empty;
        EXPECT_TRUE(TablesEqual(*expected.value(), *actual.value()));
      }
      // At this scale only the two most selective queries (Q3.3, Q3.4)
      // come back empty.
      EXPECT_GE(non_empty, 11);
    }
  }
}

TEST_F(SqlEndToEndTest, SsbSqlPlansProbeWithLineorder) {
  FusionScope scope(true);
  EngineContext ctx(TestConfig(), db_);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  for (const NamedQuery& query : SsbQueries()) {
    SCOPED_TRACE(query.name);
    PlanNodePtr plan = PlanSsbSql(query.name, *db_);
    ASSERT_NE(plan, nullptr);
    // Hash tables are built on dimensions only.
    VisitPlanPostOrder(plan, [&](const PlanNodePtr& node) {
      if (node->op() == PlanOp::kJoin) {
        EXPECT_FALSE(ScansTable(node->children()[0], "lineorder"))
            << node->label();
      }
    });
    // The one multi-join pipeline streams lineorder from its source child.
    int join_pipelines = 0;
    VisitPlanPostOrder(runner.PreparePlan(plan), [&](const PlanNodePtr& node) {
      if (node->op() != PlanOp::kFusedPipeline ||
          static_cast<const FusedPipelineNode&>(*node).num_joins() == 0) {
        return;
      }
      ++join_pipelines;
      EXPECT_TRUE(ScansTable(node->children()[0], "lineorder"))
          << node->label();
    });
    EXPECT_EQ(join_pipelines, 1);
  }
}

TEST(SqlPlacementTest, StarJoinPipelineRunsOnTheDevice) {
  SsbGeneratorOptions options;
  options.scale_factor = 1.0;  // 60,000 lineorder rows
  DatabasePtr db = GenerateSsbDatabase(options);
  FusionScope scope(true);

  // Size the device from the bytes Q2.1 reads: all of its columns fit the
  // cache, and the heap holds its lineorder columns once but not twice, so
  // only a plan whose hash tables are built on the dimensions fits.
  PlanNodePtr warm_up = PlanSsbSql("Q2.1", *db);
  ASSERT_NE(warm_up, nullptr);
  size_t fact_bytes = 0;
  size_t dim_bytes = 0;
  VisitPlanPostOrder(warm_up, [&](const PlanNodePtr& node) {
    if (node->op() != PlanOp::kScan) return;
    const auto& scan = static_cast<const ScanNode&>(*node);
    for (const auto& [key, column] : scan.base_columns()) {
      (scan.table()->name() == "lineorder" ? fact_bytes : dim_bytes) +=
          column->data_bytes();
    }
  });
  SystemConfig config = TestConfig();
  config.device_cache_bytes = 2 * (fact_bytes + dim_bytes);
  const size_t heap_bytes = fact_bytes + 4 * dim_bytes;
  ASSERT_LT(heap_bytes, 2 * fact_bytes);
  config.device_memory_bytes = config.device_cache_bytes + heap_bytes;

  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, Strategy::kDataDrivenChopping);
  ASSERT_TRUE(runner.RunQuery(warm_up).ok());
  runner.RefreshDataPlacement();
  auto stats = std::make_shared<QueryStats>();
  ASSERT_TRUE(runner.RunQuery(PlanSsbSql("Q2.1", *db), stats).ok());
  int join_pipelines = 0;
  for (const auto& node : stats->nodes()) {
    if (node->op != "fused_pipeline" ||
        node->label.find("join(") == std::string::npos) {
      continue;
    }
    ++join_pipelines;
    EXPECT_EQ(node->ran_on.load(), 1) << node->label;  // GPU
  }
  EXPECT_EQ(join_pipelines, 1);
}

}  // namespace
}  // namespace hetdb
