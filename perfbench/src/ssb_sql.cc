#include "ssb_sql.h"

#include <map>

namespace perfbench {
namespace {

const char kQ1Head[] =
    "SELECT sum(lo_extendedprice * lo_discount) AS revenue "
    "FROM lineorder, date WHERE lo_orderdate = d_datekey AND ";

const char kQ2Head[] =
    "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue "
    "FROM lineorder, date, part, supplier "
    "WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey "
    "AND lo_suppkey = s_suppkey AND ";
const char kQ2Tail[] = " GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1";

const char kQ3Join[] =
    " FROM customer, lineorder, supplier, date "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_orderdate = d_datekey AND ";

const char kQ4Join[] =
    " FROM date, customer, supplier, part, lineorder "
    "WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey "
    "AND lo_partkey = p_partkey AND lo_orderdate = d_datekey AND ";

std::string Q3(const std::string& geo, const std::string& where) {
  return "SELECT c_" + geo + ", s_" + geo +
         ", d_year, sum(lo_revenue) AS revenue" + kQ3Join + where +
         " GROUP BY c_" + geo + ", s_" + geo +
         ", d_year ORDER BY d_year, revenue DESC";
}

std::string Q4(const std::string& group_by, const std::string& where) {
  return "SELECT " + group_by +
         ", sum(lo_revenue - lo_supplycost) AS profit" + kQ4Join + where +
         " GROUP BY " + group_by + " ORDER BY " + group_by;
}

const std::map<std::string, std::string>& Queries() {
  static const auto* queries = new std::map<std::string, std::string>{
      {"Q1.1", std::string(kQ1Head) +
                   "d_year = 1993 AND lo_discount BETWEEN 1 AND 3 "
                   "AND lo_quantity < 25"},
      {"Q1.2", std::string(kQ1Head) +
                   "d_yearmonthnum = 199401 AND lo_discount BETWEEN 4 AND 6 "
                   "AND lo_quantity BETWEEN 26 AND 35"},
      {"Q1.3", std::string(kQ1Head) +
                   "d_weeknuminyear = 6 AND d_year = 1994 "
                   "AND lo_discount BETWEEN 5 AND 7 "
                   "AND lo_quantity BETWEEN 26 AND 35"},
      {"Q2.1", std::string(kQ2Head) +
                   "p_category = 'MFGR#12' AND s_region = 'AMERICA'" + kQ2Tail},
      {"Q2.2", std::string(kQ2Head) +
                   "p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' "
                   "AND s_region = 'ASIA'" +
                   kQ2Tail},
      {"Q2.3", std::string(kQ2Head) +
                   "p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE'" + kQ2Tail},
      {"Q3.1", Q3("nation",
                  "c_region = 'ASIA' AND s_region = 'ASIA' "
                  "AND d_year BETWEEN 1992 AND 1997")},
      {"Q3.2", Q3("city",
                  "c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES' "
                  "AND d_year BETWEEN 1992 AND 1997")},
      {"Q3.3", Q3("city",
                  "c_city IN ('UNITED KI1', 'UNITED KI5') "
                  "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
                  "AND d_year BETWEEN 1992 AND 1997")},
      {"Q3.4", Q3("city",
                  "c_city IN ('UNITED KI1', 'UNITED KI5') "
                  "AND s_city IN ('UNITED KI1', 'UNITED KI5') "
                  "AND d_yearmonth = 'Dec1997'")},
      {"Q4.1", Q4("d_year, c_nation",
                  "c_region = 'AMERICA' AND s_region = 'AMERICA' "
                  "AND p_mfgr IN ('MFGR#1', 'MFGR#2')")},
      {"Q4.2", Q4("d_year, s_nation, p_category",
                  "c_region = 'AMERICA' AND s_region = 'AMERICA' "
                  "AND d_year IN (1997, 1998) "
                  "AND p_mfgr IN ('MFGR#1', 'MFGR#2')")},
      {"Q4.3", Q4("d_year, s_city, p_brand1",
                  "c_region = 'AMERICA' AND s_nation = 'UNITED STATES' "
                  "AND d_year IN (1997, 1998) AND p_category = 'MFGR#14'")},
  };
  return *queries;
}

}  // namespace

const std::string& SsbSql(const std::string& name) {
  static const std::string kEmpty;
  const auto it = Queries().find(name);
  return it == Queries().end() ? kEmpty : it->second;
}

}  // namespace perfbench
