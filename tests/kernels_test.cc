#include <gtest/gtest.h>

#include "operators/kernels.h"
#include "telemetry/telemetry.h"

namespace hetdb {
namespace {

TablePtr MakeTable() {
  auto table = std::make_shared<Table>("t");
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<Int32Column>(
                      "i32", std::vector<int32_t>{5, 3, 8, 3, 1}))
                  .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<Int64Column>(
                      "i64", std::vector<int64_t>{50, 30, 80, 30, 10}))
                  .ok());
  EXPECT_TRUE(table
                  ->AddColumn(std::make_shared<DoubleColumn>(
                      "f64", std::vector<double>{0.5, 0.3, 0.8, 0.3, 0.1}))
                  .ok());
  auto str = StringColumn::FromDictionary("str", {"apple", "banana", "pear"});
  for (int32_t code : {1, 0, 2, 0, 1}) str->AppendCode(code);
  EXPECT_TRUE(table->AddColumn(std::move(str)).ok());
  return table;
}

std::vector<uint32_t> Filter(const Table& table, Predicate p) {
  auto rows = EvaluateFilter(table, ConjunctiveFilter::And({std::move(p)}));
  EXPECT_TRUE(rows.ok());
  return rows.value();
}

using Rows = std::vector<uint32_t>;

TEST(FilterTest, Int32ComparisonOperators) {
  TablePtr t = MakeTable();
  EXPECT_EQ(Filter(*t, Predicate::Eq("i32", int64_t{3})), (Rows{1, 3}));
  EXPECT_EQ(Filter(*t, Predicate::Ne("i32", int64_t{3})), (Rows{0, 2, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Lt("i32", int64_t{4})), (Rows{1, 3, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Le("i32", int64_t{3})), (Rows{1, 3, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Gt("i32", int64_t{5})), (Rows{2}));
  EXPECT_EQ(Filter(*t, Predicate::Ge("i32", int64_t{5})), (Rows{0, 2}));
  EXPECT_EQ(Filter(*t, Predicate::Between("i32", int64_t{3}, int64_t{5})),
            (Rows{0, 1, 3}));
}

TEST(FilterTest, Int64AndDoubleColumns) {
  TablePtr t = MakeTable();
  EXPECT_EQ(Filter(*t, Predicate::Ge("i64", int64_t{50})), (Rows{0, 2}));
  EXPECT_EQ(Filter(*t, Predicate::Lt("f64", 0.4)), (Rows{1, 3, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Between("f64", 0.25, 0.55)), (Rows{0, 1, 3}));
}

TEST(FilterTest, StringEqualityAndInequality) {
  TablePtr t = MakeTable();
  EXPECT_EQ(Filter(*t, Predicate::Eq("str", "banana")), (Rows{0, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Ne("str", "banana")), (Rows{1, 2, 3}));
  // Constant not in the dictionary.
  EXPECT_EQ(Filter(*t, Predicate::Eq("str", "grape")), (Rows{}));
  EXPECT_EQ(Filter(*t, Predicate::Ne("str", "grape")), (Rows{0, 1, 2, 3, 4}));
}

TEST(FilterTest, StringRangesViaDictionaryCodes) {
  TablePtr t = MakeTable();
  EXPECT_EQ(Filter(*t, Predicate::Lt("str", "banana")), (Rows{1, 3}));
  EXPECT_EQ(Filter(*t, Predicate::Le("str", "banana")), (Rows{0, 1, 3, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Gt("str", "banana")), (Rows{2}));
  EXPECT_EQ(Filter(*t, Predicate::Ge("str", "banana")), (Rows{0, 2, 4}));
  EXPECT_EQ(Filter(*t, Predicate::Between("str", "apple", "banana")),
            (Rows{0, 1, 3, 4}));
  // Bounds that are not dictionary members still work (lexicographic).
  EXPECT_EQ(Filter(*t, Predicate::Between("str", "b", "c")), (Rows{0, 4}));
}

TEST(FilterTest, ConjunctionAndDisjunction) {
  TablePtr t = MakeTable();
  ConjunctiveFilter cnf;
  cnf.conjuncts.push_back(Disjunction{Predicate::Eq("i32", int64_t{3}),
                                      Predicate::Eq("i32", int64_t{8})});
  cnf.conjuncts.push_back(Disjunction(Predicate::Ge("i64", int64_t{30})));
  auto rows = EvaluateFilter(*t, cnf);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), (Rows{1, 2, 3}));
}

TEST(FilterTest, EmptyFilterSelectsEverything) {
  TablePtr t = MakeTable();
  auto rows = EvaluateFilter(*t, ConjunctiveFilter{});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 5u);
}

TEST(FilterTest, ErrorsAreReported) {
  TablePtr t = MakeTable();
  auto missing = EvaluateFilter(
      *t, ConjunctiveFilter::And({Predicate::Eq("nope", int64_t{1})}));
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  auto type_mismatch = EvaluateFilter(
      *t, ConjunctiveFilter::And({Predicate::Eq("str", int64_t{1})}));
  EXPECT_EQ(type_mismatch.status().code(), StatusCode::kInvalidArgument);
  auto numeric_vs_string = EvaluateFilter(
      *t, ConjunctiveFilter::And({Predicate::Eq("i32", "three")}));
  EXPECT_EQ(numeric_vs_string.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectivityTest, SmallTablesAreSampledWhole) {
  TablePtr t = MakeTable();
  ConjunctiveFilter cnf;
  cnf.conjuncts.push_back(Disjunction{Predicate::Eq("i32", int64_t{3}),
                                      Predicate::Eq("i32", int64_t{8})});
  cnf.conjuncts.push_back(Disjunction(Predicate::Ge("i64", int64_t{30})));
  auto selectivity = SampleFilterSelectivity(*t, cnf);
  ASSERT_TRUE(selectivity.ok());
  EXPECT_DOUBLE_EQ(selectivity.value(), 3.0 / 5.0);  // rows {1, 2, 3}
  EXPECT_DOUBLE_EQ(SampleFilterSelectivity(*t, ConjunctiveFilter{}).value(),
                   1.0);
  EXPECT_EQ(SampleFilterSelectivity(
                *t, ConjunctiveFilter::And({Predicate::Eq("nope", int64_t{1})}))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SelectivityTest, LargeTablesAreSampledWithoutKernelTelemetry) {
  // A periodic column whose period divides the row count: a whole-row
  // stride would see few residues.
  auto table = std::make_shared<Table>("big");
  std::vector<int32_t> values(102400);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 100;
  ASSERT_TRUE(
      table->AddColumn(std::make_shared<Int32Column>("v", std::move(values)))
          .ok());
  Counter& filters =
      GlobalKernelMetrics().GetCounter("kernel.filter.invocations");
  const int64_t before = filters.value();
  auto selectivity = SampleFilterSelectivity(
      *table, ConjunctiveFilter::And({Predicate::Lt("v", int64_t{30})}));
  ASSERT_TRUE(selectivity.ok());
  EXPECT_NEAR(selectivity.value(), 0.3, 0.1);
  EXPECT_EQ(filters.value(), before);
}

TEST(GatherTest, GathersAllColumnTypes) {
  TablePtr t = MakeTable();
  auto out = GatherRows(*t, {4, 0}, "g");
  ASSERT_TRUE(out.ok());
  const Table& g = *out.value();
  EXPECT_EQ(g.num_rows(), 2u);
  EXPECT_EQ(ColumnCast<Int32Column>(*g.GetColumn("i32").value()).value(0), 1);
  EXPECT_EQ(ColumnCast<Int64Column>(*g.GetColumn("i64").value()).value(1), 50);
  EXPECT_EQ(ColumnCast<DoubleColumn>(*g.GetColumn("f64").value()).value(0), 0.1);
  EXPECT_EQ(ColumnCast<StringColumn>(*g.GetColumn("str").value()).value(1),
            "banana");
}

TablePtr MakeDim() {
  auto dim = std::make_shared<Table>("dim");
  EXPECT_TRUE(dim->AddColumn(std::make_shared<Int32Column>(
                                 "key", std::vector<int32_t>{1, 2, 3}))
                  .ok());
  auto name = StringColumn::FromDictionary("name", {"one", "three", "two"});
  name->AppendCode(0);  // key 1 -> one
  name->AppendCode(2);  // key 2 -> two
  name->AppendCode(1);  // key 3 -> three
  EXPECT_TRUE(dim->AddColumn(std::move(name)).ok());
  return dim;
}

TablePtr MakeFact() {
  auto fact = std::make_shared<Table>("fact");
  EXPECT_TRUE(fact->AddColumn(std::make_shared<Int32Column>(
                                  "fk", std::vector<int32_t>{2, 9, 1, 2, 3}))
                  .ok());
  EXPECT_TRUE(fact->AddColumn(
                      std::make_shared<Int32Column>(
                          "measure", std::vector<int32_t>{10, 20, 30, 40, 50}))
                  .ok());
  return fact;
}

TEST(HashJoinTest, PkFkJoin) {
  TablePtr dim = MakeDim(), fact = MakeFact();
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  spec.probe_columns = {"measure"};
  auto out = HashJoin(*dim, "key", *fact, "fk", spec, "j");
  ASSERT_TRUE(out.ok());
  const Table& j = *out.value();
  ASSERT_EQ(j.num_rows(), 4u);  // fk=9 has no match
  const auto& name = ColumnCast<StringColumn>(*j.GetColumn("name").value());
  const auto& measure = ColumnCast<Int32Column>(*j.GetColumn("measure").value());
  EXPECT_EQ(name.value(0), "two");
  EXPECT_EQ(measure.value(0), 10);
  EXPECT_EQ(name.value(1), "one");
  EXPECT_EQ(measure.value(1), 30);
  EXPECT_EQ(name.value(3), "three");
  EXPECT_EQ(measure.value(3), 50);
}

TEST(HashJoinTest, DuplicateBuildKeys) {
  auto build = std::make_shared<Table>("b");
  ASSERT_TRUE(build
                  ->AddColumn(std::make_shared<Int32Column>(
                      "key", std::vector<int32_t>{1, 1, 2}))
                  .ok());
  ASSERT_TRUE(build
                  ->AddColumn(std::make_shared<Int32Column>(
                      "v", std::vector<int32_t>{100, 200, 300}))
                  .ok());
  auto probe = std::make_shared<Table>("p");
  ASSERT_TRUE(probe
                  ->AddColumn(std::make_shared<Int32Column>(
                      "key", std::vector<int32_t>{1, 2}))
                  .ok());
  JoinOutputSpec spec;
  spec.build_columns = {"v"};
  spec.probe_columns = {"key"};
  auto out = HashJoin(*build, "key", *probe, "key", spec, "j");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()->num_rows(), 3u);  // key 1 matches twice
}

TEST(HashJoinTest, AliasesRenameOutputs) {
  TablePtr dim = MakeDim(), fact = MakeFact();
  JoinOutputSpec spec;
  spec.build_columns = {"name", "key"};
  spec.probe_columns = {"measure"};
  spec.build_aliases = {"dim_name", "dim_key"};
  auto out = HashJoin(*dim, "key", *fact, "fk", spec, "j");
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value()->HasColumn("dim_name"));
  EXPECT_TRUE(out.value()->HasColumn("dim_key"));
  EXPECT_FALSE(out.value()->HasColumn("name"));
}

TEST(HashJoinTest, RejectsNonIntegerKeys) {
  TablePtr dim = MakeDim(), fact = MakeFact();
  JoinOutputSpec spec;
  auto out = HashJoin(*dim, "name", *fact, "fk", spec, "j");
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(HashJoinTest, EmptyProbeYieldsEmptyOutput) {
  TablePtr dim = MakeDim();
  auto probe = std::make_shared<Table>("p");
  ASSERT_TRUE(probe->AddColumn(std::make_shared<Int32Column>("fk")).ok());
  JoinOutputSpec spec;
  spec.build_columns = {"name"};
  auto out = HashJoin(*dim, "key", *probe, "fk", spec, "j");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()->num_rows(), 0u);
}

TEST(AggregateTest, UngroupedAggregates) {
  TablePtr t = MakeTable();
  auto out =
      Aggregate(*t, {},
                {{AggregateFn::kSum, "i32", "s"},
                 {AggregateFn::kCount, "", "n"},
                 {AggregateFn::kMin, "i32", "lo"},
                 {AggregateFn::kMax, "i32", "hi"},
                 {AggregateFn::kAvg, "i32", "avg"}},
                "a");
  ASSERT_TRUE(out.ok());
  const Table& a = *out.value();
  ASSERT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(ColumnCast<Int64Column>(*a.GetColumn("s").value()).value(0), 20);
  EXPECT_EQ(ColumnCast<Int64Column>(*a.GetColumn("n").value()).value(0), 5);
  EXPECT_EQ(ColumnCast<Int64Column>(*a.GetColumn("lo").value()).value(0), 1);
  EXPECT_EQ(ColumnCast<Int64Column>(*a.GetColumn("hi").value()).value(0), 8);
  EXPECT_DOUBLE_EQ(ColumnCast<DoubleColumn>(*a.GetColumn("avg").value()).value(0),
                   4.0);
}

TEST(AggregateTest, GroupByStringColumn) {
  TablePtr t = MakeTable();
  auto out = Aggregate(*t, {"str"}, {{AggregateFn::kSum, "i32", "s"}}, "a");
  ASSERT_TRUE(out.ok());
  const Table& a = *out.value();
  ASSERT_EQ(a.num_rows(), 3u);  // banana, apple, pear in first-seen order
  const auto& keys = ColumnCast<StringColumn>(*a.GetColumn("str").value());
  const auto& sums = ColumnCast<Int64Column>(*a.GetColumn("s").value());
  EXPECT_EQ(keys.value(0), "banana");
  EXPECT_EQ(sums.value(0), 5 + 1);
  EXPECT_EQ(keys.value(1), "apple");
  EXPECT_EQ(sums.value(1), 3 + 3);
  EXPECT_EQ(keys.value(2), "pear");
  EXPECT_EQ(sums.value(2), 8);
}

TEST(AggregateTest, MultiColumnGroupBy) {
  auto t = std::make_shared<Table>("t");
  ASSERT_TRUE(t->AddColumn(std::make_shared<Int32Column>(
                               "g1", std::vector<int32_t>{1, 1, 2, 1}))
                  .ok());
  ASSERT_TRUE(t->AddColumn(std::make_shared<Int32Column>(
                               "g2", std::vector<int32_t>{1, 2, 1, 1}))
                  .ok());
  ASSERT_TRUE(t->AddColumn(std::make_shared<Int32Column>(
                               "v", std::vector<int32_t>{10, 20, 30, 40}))
                  .ok());
  auto out = Aggregate(*t, {"g1", "g2"}, {{AggregateFn::kSum, "v", "s"}}, "a");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value()->num_rows(), 3u);
  const auto& sums = ColumnCast<Int64Column>(*out.value()->GetColumn("s").value());
  EXPECT_EQ(sums.value(0), 50);  // (1,1)
  EXPECT_EQ(sums.value(1), 20);  // (1,2)
  EXPECT_EQ(sums.value(2), 30);  // (2,1)
}

TEST(AggregateTest, DoubleInputsYieldDoubleSums) {
  TablePtr t = MakeTable();
  auto out = Aggregate(*t, {}, {{AggregateFn::kSum, "f64", "s"}}, "a");
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(
      ColumnCast<DoubleColumn>(*out.value()->GetColumn("s").value()).value(0),
      2.0);
}

TEST(AggregateTest, EmptyInputProducesNoGroups) {
  auto t = std::make_shared<Table>("t");
  ASSERT_TRUE(t->AddColumn(std::make_shared<Int32Column>("v")).ok());
  auto out = Aggregate(*t, {"v"}, {{AggregateFn::kSum, "v", "s"}}, "a");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()->num_rows(), 0u);
}

TEST(SortTest, SingleKeyAscendingDescending) {
  TablePtr t = MakeTable();
  auto asc = Sort(*t, {{"i32", true}}, "s");
  ASSERT_TRUE(asc.ok());
  const auto& av = ColumnCast<Int32Column>(*asc.value()->GetColumn("i32").value());
  EXPECT_EQ(av.values(), (std::vector<int32_t>{1, 3, 3, 5, 8}));
  auto desc = Sort(*t, {{"i32", false}}, "s");
  ASSERT_TRUE(desc.ok());
  const auto& dv =
      ColumnCast<Int32Column>(*desc.value()->GetColumn("i32").value());
  EXPECT_EQ(dv.values(), (std::vector<int32_t>{8, 5, 3, 3, 1}));
}

TEST(SortTest, MultiKeyWithStringTieBreak) {
  TablePtr t = MakeTable();
  // i32 has a tie at 3 (rows 1 and 3, strings "apple"/"apple"); add f64 as
  // final tie break to make the expectation exact: stable sort keeps input
  // order for full ties.
  auto out = Sort(*t, {{"i32", true}, {"str", true}}, "s");
  ASSERT_TRUE(out.ok());
  const auto& v = ColumnCast<Int32Column>(*out.value()->GetColumn("i32").value());
  EXPECT_EQ(v.values(), (std::vector<int32_t>{1, 3, 3, 5, 8}));
  const auto& s = ColumnCast<StringColumn>(*out.value()->GetColumn("str").value());
  EXPECT_EQ(s.value(0), "banana");
  EXPECT_EQ(s.value(1), "apple");
  EXPECT_EQ(s.value(2), "apple");
}

TEST(SortTest, SortsByStringKey) {
  TablePtr t = MakeTable();
  auto out = Sort(*t, {{"str", true}}, "s");
  ASSERT_TRUE(out.ok());
  const auto& s = ColumnCast<StringColumn>(*out.value()->GetColumn("str").value());
  EXPECT_EQ(s.value(0), "apple");
  EXPECT_EQ(s.value(4), "pear");
}

TEST(ProjectTest, AliasesAndArithmetic) {
  TablePtr t = MakeTable();
  auto out = Project(
      *t, {"str"},
      {ArithmeticExpr::ColumnOp("sum", ArithmeticExpr::Op::kAdd, "i32", "i64"),
       ArithmeticExpr::ConstantOp("half", ArithmeticExpr::Op::kDiv, "i32", 2),
       ArithmeticExpr::ConstantMinusColumn("inv", 10, "i32")},
      "p");
  ASSERT_TRUE(out.ok());
  const Table& p = *out.value();
  EXPECT_EQ(p.num_columns(), 4u);
  const auto& sum = ColumnCast<Int64Column>(*p.GetColumn("sum").value());
  EXPECT_EQ(sum.value(0), 55);
  const auto& half = ColumnCast<DoubleColumn>(*p.GetColumn("half").value());
  EXPECT_DOUBLE_EQ(half.value(2), 4.0);
  const auto& inv = ColumnCast<Int64Column>(*p.GetColumn("inv").value());
  EXPECT_EQ(inv.value(0), 5);
  EXPECT_EQ(inv.value(2), 2);
}

TEST(ProjectTest, KeepAliasesShareData) {
  TablePtr t = MakeTable();
  auto out = Project(*t, {"i32"}, {}, "p");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()->GetColumn("i32").value().get(),
            t->GetColumn("i32").value().get());
}

TEST(ProjectTest, DoublePropagates) {
  TablePtr t = MakeTable();
  auto out = Project(*t, {},
                     {ArithmeticExpr::ColumnOp(
                         "x", ArithmeticExpr::Op::kMul, "i32", "f64")},
                     "p");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()->GetColumn("x").value()->type(), DataType::kDouble);
}

TEST(LimitTest, TakesFirstRows) {
  TablePtr t = MakeTable();
  auto out = Limit(*t, 2, "l");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()->num_rows(), 2u);
  auto all = Limit(*t, 100, "l");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value()->num_rows(), 5u);
}

TEST(FilterInputBytesTest, SumsReferencedColumns) {
  TablePtr t = MakeTable();
  ConjunctiveFilter cnf = ConjunctiveFilter::And(
      {Predicate::Eq("i32", int64_t{1}), Predicate::Eq("i64", int64_t{1})});
  EXPECT_EQ(FilterInputBytes(*t, cnf), 5 * 4 + 5 * 8u);
}

}  // namespace
}  // namespace hetdb
