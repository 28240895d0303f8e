#include "ssb/ssb_queries.h"

#include <utility>

#include "common/logging.h"

namespace hetdb {

namespace {

using Builder = std::function<Result<PlanNodePtr>(const Database&)>;

Result<PlanNodePtr> Scan(const Database& db, const std::string& table,
                         std::vector<std::string> columns) {
  HETDB_ASSIGN_OR_RETURN(TablePtr t, db.GetTable(table));
  return PlanNodePtr(std::make_shared<ScanNode>(t, std::move(columns)));
}

PlanNodePtr Select(PlanNodePtr child, ConjunctiveFilter filter) {
  return std::make_shared<SelectNode>(std::move(child), std::move(filter));
}

PlanNodePtr Join(PlanNodePtr build, PlanNodePtr probe, std::string build_key,
                 std::string probe_key, std::vector<std::string> build_out,
                 std::vector<std::string> probe_out) {
  JoinOutputSpec spec;
  spec.build_columns = std::move(build_out);
  spec.probe_columns = std::move(probe_out);
  return std::make_shared<JoinNode>(std::move(build), std::move(probe),
                                    std::move(build_key), std::move(probe_key),
                                    std::move(spec));
}

PlanNodePtr Agg(PlanNodePtr child, std::vector<std::string> group_by,
                std::vector<AggregateSpec> aggs) {
  return std::make_shared<AggregateNode>(std::move(child), std::move(group_by),
                                         std::move(aggs));
}

PlanNodePtr OrderBy(PlanNodePtr child, std::vector<SortKey> keys) {
  return std::make_shared<SortNode>(std::move(child), std::move(keys));
}

AggregateSpec Sum(std::string input, std::string output) {
  return AggregateSpec{AggregateFn::kSum, std::move(input), std::move(output)};
}

// --- Flight 1: fact-table range selections over one date-dimension join -----

/// Shared shape of Q1.1–Q1.3: filtered date build side, filtered lineorder
/// probe side, revenue = sum(lo_extendedprice * lo_discount).
Result<PlanNodePtr> BuildQ1(const Database& db, ConjunctiveFilter date_filter,
                            ConjunctiveFilter fact_filter,
                            std::vector<std::string> date_columns) {
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr date, Scan(db, "date", date_columns));
  PlanNodePtr date_f = Select(std::move(date), std::move(date_filter));
  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr lo,
      Scan(db, "lineorder",
           {"lo_orderdate", "lo_quantity", "lo_discount", "lo_extendedprice"}));
  PlanNodePtr lo_f = Select(std::move(lo), std::move(fact_filter));
  PlanNodePtr joined =
      Join(std::move(date_f), std::move(lo_f), "d_datekey", "lo_orderdate",
           /*build_out=*/{}, /*probe_out=*/{"lo_extendedprice", "lo_discount"});
  PlanNodePtr projected = std::make_shared<ProjectNode>(
      std::move(joined), std::vector<std::string>{},
      std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
          "lo_rev", ArithmeticExpr::Op::kMul, "lo_extendedprice",
          "lo_discount")});
  return Agg(std::move(projected), {}, {Sum("lo_rev", "revenue")});
}

Result<PlanNodePtr> Q11(const Database& db) {
  return BuildQ1(
      db, ConjunctiveFilter::And({Predicate::Eq("d_year", int64_t{1993})}),
      ConjunctiveFilter::And(
          {Predicate::Between("lo_discount", int64_t{1}, int64_t{3}),
           Predicate::Lt("lo_quantity", int64_t{25})}),
      {"d_datekey", "d_year"});
}

Result<PlanNodePtr> Q12(const Database& db) {
  return BuildQ1(
      db,
      ConjunctiveFilter::And({Predicate::Eq("d_yearmonthnum", int64_t{199401})}),
      ConjunctiveFilter::And(
          {Predicate::Between("lo_discount", int64_t{4}, int64_t{6}),
           Predicate::Between("lo_quantity", int64_t{26}, int64_t{35})}),
      {"d_datekey", "d_yearmonthnum"});
}

Result<PlanNodePtr> Q13(const Database& db) {
  return BuildQ1(
      db,
      ConjunctiveFilter::And({Predicate::Eq("d_weeknuminyear", int64_t{6}),
                              Predicate::Eq("d_year", int64_t{1994})}),
      ConjunctiveFilter::And(
          {Predicate::Between("lo_discount", int64_t{5}, int64_t{7}),
           Predicate::Between("lo_quantity", int64_t{26}, int64_t{35})}),
      {"d_datekey", "d_year", "d_weeknuminyear"});
}

// --- Flight 2: part/supplier drill-down --------------------------------------

Result<PlanNodePtr> BuildQ2(const Database& db, Predicate part_predicate,
                            const std::string& part_filter_column,
                            const std::string& supplier_region) {
  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr part,
      Scan(db, "part",
           part_filter_column == "p_brand1"
               ? std::vector<std::string>{"p_partkey", "p_brand1"}
               : std::vector<std::string>{"p_partkey", part_filter_column,
                                          "p_brand1"}));
  PlanNodePtr part_f =
      Select(std::move(part), ConjunctiveFilter::And({std::move(part_predicate)}));
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr supp,
                         Scan(db, "supplier", {"s_suppkey", "s_region"}));
  PlanNodePtr supp_f = Select(
      std::move(supp),
      ConjunctiveFilter::And({Predicate::Eq("s_region", supplier_region)}));
  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr lo,
      Scan(db, "lineorder",
           {"lo_partkey", "lo_suppkey", "lo_orderdate", "lo_revenue"}));
  PlanNodePtr j1 =
      Join(std::move(part_f), std::move(lo), "p_partkey", "lo_partkey",
           {"p_brand1"}, {"lo_suppkey", "lo_orderdate", "lo_revenue"});
  PlanNodePtr j2 = Join(std::move(supp_f), std::move(j1), "s_suppkey",
                        "lo_suppkey", {}, {"p_brand1", "lo_orderdate",
                                           "lo_revenue"});
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr date,
                         Scan(db, "date", {"d_datekey", "d_year"}));
  PlanNodePtr j3 = Join(std::move(date), std::move(j2), "d_datekey",
                        "lo_orderdate", {"d_year"}, {"p_brand1", "lo_revenue"});
  PlanNodePtr agg = Agg(std::move(j3), {"d_year", "p_brand1"},
                        {Sum("lo_revenue", "revenue")});
  return OrderBy(std::move(agg), {{"d_year", true}, {"p_brand1", true}});
}

Result<PlanNodePtr> Q21(const Database& db) {
  return BuildQ2(db, Predicate::Eq("p_category", "MFGR#12"), "p_category",
                 "AMERICA");
}

Result<PlanNodePtr> Q22(const Database& db) {
  return BuildQ2(db, Predicate::Between("p_brand1", "MFGR#2221", "MFGR#2228"),
                 "p_brand1", "ASIA");
}

Result<PlanNodePtr> Q23(const Database& db) {
  return BuildQ2(db, Predicate::Eq("p_brand1", "MFGR#2239"), "p_brand1",
                 "EUROPE");
}

// --- Flight 3: customer/supplier geography drill-down ------------------------

Result<PlanNodePtr> BuildQ3(const Database& db,
                            const std::string& geo_column_prefix,
                            ConjunctiveFilter customer_filter,
                            ConjunctiveFilter supplier_filter,
                            ConjunctiveFilter date_filter,
                            std::vector<std::string> date_columns) {
  // geo_column_prefix selects the grouping granularity: "nation" or "city".
  const std::string c_geo = "c_" + geo_column_prefix;
  const std::string s_geo = "s_" + geo_column_prefix;

  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr cust,
      Scan(db, "customer",
           customer_filter.conjuncts[0].atoms[0].column == c_geo
               ? std::vector<std::string>{"c_custkey", c_geo}
               : std::vector<std::string>{
                     "c_custkey", customer_filter.conjuncts[0].atoms[0].column,
                     c_geo}));
  PlanNodePtr cust_f = Select(std::move(cust), std::move(customer_filter));
  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr supp,
      Scan(db, "supplier",
           supplier_filter.conjuncts[0].atoms[0].column == s_geo
               ? std::vector<std::string>{"s_suppkey", s_geo}
               : std::vector<std::string>{
                     "s_suppkey", supplier_filter.conjuncts[0].atoms[0].column,
                     s_geo}));
  PlanNodePtr supp_f = Select(std::move(supp), std::move(supplier_filter));
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr date, Scan(db, "date", date_columns));
  PlanNodePtr date_f = Select(std::move(date), std::move(date_filter));

  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr lo,
      Scan(db, "lineorder",
           {"lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"}));
  PlanNodePtr j1 =
      Join(std::move(cust_f), std::move(lo), "c_custkey", "lo_custkey",
           {c_geo}, {"lo_suppkey", "lo_orderdate", "lo_revenue"});
  PlanNodePtr j2 =
      Join(std::move(supp_f), std::move(j1), "s_suppkey", "lo_suppkey",
           {s_geo}, {c_geo, "lo_orderdate", "lo_revenue"});
  PlanNodePtr j3 =
      Join(std::move(date_f), std::move(j2), "d_datekey", "lo_orderdate",
           {"d_year"}, {c_geo, s_geo, "lo_revenue"});
  PlanNodePtr agg = Agg(std::move(j3), {c_geo, s_geo, "d_year"},
                        {Sum("lo_revenue", "revenue")});
  return OrderBy(std::move(agg), {{"d_year", true}, {"revenue", false}});
}

Result<PlanNodePtr> Q31(const Database& db) {
  return BuildQ3(
      db, "nation",
      ConjunctiveFilter::And({Predicate::Eq("c_region", "ASIA")}),
      ConjunctiveFilter::And({Predicate::Eq("s_region", "ASIA")}),
      ConjunctiveFilter::And(
          {Predicate::Between("d_year", int64_t{1992}, int64_t{1997})}),
      {"d_datekey", "d_year"});
}

Result<PlanNodePtr> Q32(const Database& db) {
  return BuildQ3(
      db, "city",
      ConjunctiveFilter::And({Predicate::Eq("c_nation", "UNITED STATES")}),
      ConjunctiveFilter::And({Predicate::Eq("s_nation", "UNITED STATES")}),
      ConjunctiveFilter::And(
          {Predicate::Between("d_year", int64_t{1992}, int64_t{1997})}),
      {"d_datekey", "d_year"});
}

ConjunctiveFilter CityPairFilter(const std::string& column) {
  ConjunctiveFilter filter;
  filter.conjuncts.push_back(Disjunction{
      Predicate::Eq(column, "UNITED KI1"), Predicate::Eq(column, "UNITED KI5")});
  return filter;
}

Result<PlanNodePtr> Q33(const Database& db) {
  return BuildQ3(
      db, "city", CityPairFilter("c_city"), CityPairFilter("s_city"),
      ConjunctiveFilter::And(
          {Predicate::Between("d_year", int64_t{1992}, int64_t{1997})}),
      {"d_datekey", "d_year"});
}

Result<PlanNodePtr> Q34(const Database& db) {
  return BuildQ3(
      db, "city", CityPairFilter("c_city"), CityPairFilter("s_city"),
      ConjunctiveFilter::And({Predicate::Eq("d_yearmonth", "Dec1997")}),
      {"d_datekey", "d_year", "d_yearmonth"});
}

// --- Flight 4: profit drill-down ---------------------------------------------

Result<PlanNodePtr> BuildQ4(const Database& db,
                            ConjunctiveFilter customer_filter,
                            std::vector<std::string> customer_columns,
                            ConjunctiveFilter supplier_filter,
                            std::vector<std::string> supplier_columns,
                            ConjunctiveFilter part_filter,
                            std::vector<std::string> part_columns,
                            ConjunctiveFilter date_filter,
                            std::vector<std::string> group_by,
                            std::vector<std::string> carry_customer,
                            std::vector<std::string> carry_supplier,
                            std::vector<std::string> carry_part) {
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr cust,
                         Scan(db, "customer", customer_columns));
  PlanNodePtr cust_f = Select(std::move(cust), std::move(customer_filter));
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr supp,
                         Scan(db, "supplier", supplier_columns));
  PlanNodePtr supp_f = Select(std::move(supp), std::move(supplier_filter));
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr part, Scan(db, "part", part_columns));
  PlanNodePtr part_f = Select(std::move(part), std::move(part_filter));
  HETDB_ASSIGN_OR_RETURN(PlanNodePtr date,
                         Scan(db, "date", {"d_datekey", "d_year"}));
  PlanNodePtr date_side = std::move(date);
  if (!date_filter.empty()) {
    date_side = Select(std::move(date_side), std::move(date_filter));
  }

  HETDB_ASSIGN_OR_RETURN(
      PlanNodePtr lo,
      Scan(db, "lineorder",
           {"lo_custkey", "lo_suppkey", "lo_partkey", "lo_orderdate",
            "lo_revenue", "lo_supplycost"}));

  std::vector<std::string> carry = {"lo_suppkey", "lo_partkey", "lo_orderdate",
                                    "lo_revenue", "lo_supplycost"};
  PlanNodePtr j1 = Join(std::move(cust_f), std::move(lo), "c_custkey",
                        "lo_custkey", carry_customer, carry);

  std::vector<std::string> carry2 = carry_customer;
  carry2.insert(carry2.end(), {"lo_partkey", "lo_orderdate", "lo_revenue",
                               "lo_supplycost"});
  PlanNodePtr j2 = Join(std::move(supp_f), std::move(j1), "s_suppkey",
                        "lo_suppkey", carry_supplier, carry2);

  std::vector<std::string> carry3 = carry_customer;
  carry3.insert(carry3.end(), carry_supplier.begin(), carry_supplier.end());
  carry3.insert(carry3.end(), {"lo_orderdate", "lo_revenue", "lo_supplycost"});
  PlanNodePtr j3 = Join(std::move(part_f), std::move(j2), "p_partkey",
                        "lo_partkey", carry_part, carry3);

  std::vector<std::string> carry4 = carry_customer;
  carry4.insert(carry4.end(), carry_supplier.begin(), carry_supplier.end());
  carry4.insert(carry4.end(), carry_part.begin(), carry_part.end());
  carry4.insert(carry4.end(), {"lo_revenue", "lo_supplycost"});
  PlanNodePtr j4 = Join(std::move(date_side), std::move(j3), "d_datekey",
                        "lo_orderdate", {"d_year"}, carry4);

  std::vector<std::string> keep = group_by;
  PlanNodePtr projected = std::make_shared<ProjectNode>(
      std::move(j4), std::move(keep),
      std::vector<ArithmeticExpr>{ArithmeticExpr::ColumnOp(
          "lo_profit", ArithmeticExpr::Op::kSub, "lo_revenue",
          "lo_supplycost")});
  PlanNodePtr agg =
      Agg(std::move(projected), group_by, {Sum("lo_profit", "profit")});
  std::vector<SortKey> order;
  for (const std::string& g : group_by) order.push_back({g, true});
  return OrderBy(std::move(agg), std::move(order));
}

Result<PlanNodePtr> Q41(const Database& db) {
  ConjunctiveFilter mfgr;
  mfgr.conjuncts.push_back(Disjunction{Predicate::Eq("p_mfgr", "MFGR#1"),
                                       Predicate::Eq("p_mfgr", "MFGR#2")});
  return BuildQ4(
      db, ConjunctiveFilter::And({Predicate::Eq("c_region", "AMERICA")}),
      {"c_custkey", "c_region", "c_nation"},
      ConjunctiveFilter::And({Predicate::Eq("s_region", "AMERICA")}),
      {"s_suppkey", "s_region"}, std::move(mfgr), {"p_partkey", "p_mfgr"},
      ConjunctiveFilter{}, {"d_year", "c_nation"}, {"c_nation"}, {}, {});
}

Result<PlanNodePtr> Q42(const Database& db) {
  ConjunctiveFilter mfgr;
  mfgr.conjuncts.push_back(Disjunction{Predicate::Eq("p_mfgr", "MFGR#1"),
                                       Predicate::Eq("p_mfgr", "MFGR#2")});
  ConjunctiveFilter years;
  years.conjuncts.push_back(Disjunction{
      Predicate::Eq("d_year", int64_t{1997}), Predicate::Eq("d_year", int64_t{1998})});
  return BuildQ4(
      db, ConjunctiveFilter::And({Predicate::Eq("c_region", "AMERICA")}),
      {"c_custkey", "c_region"},
      ConjunctiveFilter::And({Predicate::Eq("s_region", "AMERICA")}),
      {"s_suppkey", "s_region", "s_nation"}, std::move(mfgr),
      {"p_partkey", "p_mfgr", "p_category"}, std::move(years),
      {"d_year", "s_nation", "p_category"}, {}, {"s_nation"}, {"p_category"});
}

Result<PlanNodePtr> Q43(const Database& db) {
  ConjunctiveFilter years;
  years.conjuncts.push_back(Disjunction{
      Predicate::Eq("d_year", int64_t{1997}), Predicate::Eq("d_year", int64_t{1998})});
  return BuildQ4(
      db, ConjunctiveFilter::And({Predicate::Eq("c_region", "AMERICA")}),
      {"c_custkey", "c_region"},
      ConjunctiveFilter::And({Predicate::Eq("s_nation", "UNITED STATES")}),
      {"s_suppkey", "s_nation", "s_city"},
      ConjunctiveFilter::And({Predicate::Eq("p_category", "MFGR#14")}),
      {"p_partkey", "p_category", "p_brand1"}, std::move(years),
      {"d_year", "s_city", "p_brand1"}, {}, {"s_city"}, {"p_brand1"});
}

// --- SQL texts --------------------------------------------------------------

std::string Flight1Sql(const std::string& where) {
  return "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
         "FROM lineorder, date WHERE lo_orderdate = d_datekey AND " +
         where;
}

std::string Flight2Sql(const std::string& where) {
  return "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
         "FROM lineorder, date, part, supplier "
         "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
         "AND lo_suppkey = s_suppkey AND " +
         where + " GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1";
}

/// `geo` is the grouping granularity of both dimensions: "nation" or "city".
std::string Flight3Sql(const std::string& geo, const std::string& where) {
  const std::string group = "c_" + geo + ", s_" + geo + ", d_year";
  return "SELECT " + group + ", sum(lo_revenue) AS revenue "
         "FROM customer, lineorder, supplier, date "
         "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
         "AND lo_orderdate = d_datekey AND " + where + " GROUP BY " + group +
         " ORDER BY d_year, revenue DESC";
}

std::string Flight4Sql(const std::string& group, const std::string& where) {
  return "SELECT " + group + ", sum(lo_revenue - lo_supplycost) AS profit "
         "FROM date, customer, supplier, part, lineorder "
         "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
         "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey AND " +
         where + " GROUP BY " + group + " ORDER BY " + group;
}

}  // namespace

std::vector<NamedQuery> SsbQueries() {
  return {
      {"Q1.1", Q11}, {"Q1.2", Q12}, {"Q1.3", Q13}, {"Q2.1", Q21},
      {"Q2.2", Q22}, {"Q2.3", Q23}, {"Q3.1", Q31}, {"Q3.2", Q32},
      {"Q3.3", Q33}, {"Q3.4", Q34}, {"Q4.1", Q41}, {"Q4.2", Q42},
      {"Q4.3", Q43},
  };
}

Result<NamedQuery> SsbQueryByName(const std::string& name) {
  for (NamedQuery& query : SsbQueries()) {
    if (query.name == name) return query;
  }
  return Status::NotFound("no SSB query named '" + name + "'");
}

Result<std::string> SsbQuerySql(const std::string& name) {
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"Q1.1", Flight1Sql("d_year = 1993 AND lo_discount BETWEEN 1 AND 3 "
                          "AND lo_quantity < 25")},
      {"Q1.2", Flight1Sql("d_yearmonthnum = 199401 "
                          "AND lo_discount BETWEEN 4 AND 6 "
                          "AND lo_quantity BETWEEN 26 AND 35")},
      {"Q1.3", Flight1Sql("d_weeknuminyear = 6 AND d_year = 1994 "
                          "AND lo_discount BETWEEN 5 AND 7 "
                          "AND lo_quantity BETWEEN 26 AND 35")},
      {"Q2.1", Flight2Sql("p_category = 'MFGR#12' AND s_region = 'AMERICA'")},
      {"Q2.2", Flight2Sql("p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' "
                          "AND s_region = 'ASIA'")},
      {"Q2.3", Flight2Sql("p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE'")},
      {"Q3.1", Flight3Sql("nation", "c_region = 'ASIA' AND s_region = 'ASIA' "
                                    "AND d_year BETWEEN 1992 AND 1997")},
      {"Q3.2", Flight3Sql("city", "c_nation = 'UNITED STATES' "
                                  "AND s_nation = 'UNITED STATES' "
                                  "AND d_year BETWEEN 1992 AND 1997")},
      {"Q3.3", Flight3Sql("city", "c_city IN ('UNITED KI1', 'UNITED KI5') "
                                  "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
                                  "AND d_year BETWEEN 1992 AND 1997")},
      {"Q3.4", Flight3Sql("city", "c_city IN ('UNITED KI1', 'UNITED KI5') "
                                  "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
                                  "AND d_yearmonth = 'Dec1997'")},
      {"Q4.1", Flight4Sql("d_year, c_nation",
                          "c_region = 'AMERICA' AND s_region = 'AMERICA' "
                          "AND p_mfgr IN ('MFGR#1', 'MFGR#2')")},
      {"Q4.2", Flight4Sql("d_year, s_nation, p_category",
                          "c_region = 'AMERICA' AND s_region = 'AMERICA' "
                          "AND d_year IN (1997, 1998) "
                          "AND p_mfgr IN ('MFGR#1', 'MFGR#2')")},
      {"Q4.3", Flight4Sql("d_year, s_city, p_brand1",
                          "c_region = 'AMERICA' AND s_nation = 'UNITED STATES' "
                          "AND d_year IN (1997, 1998) "
                          "AND p_category = 'MFGR#14'")},
  };
  for (const auto& [query_name, sql] : queries) {
    if (query_name == name) return sql;
  }
  return Status::NotFound("no SSB query named '" + name + "'");
}

}  // namespace hetdb
