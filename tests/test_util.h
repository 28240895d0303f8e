#ifndef HETDB_TESTS_TEST_UTIL_H_
#define HETDB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/config.h"
#include "operators/plan_node.h"
#include "storage/database.h"
#include "telemetry/query_stats.h"

namespace hetdb {

/// Deep equality of two tables: same column names, types, and values (exact
/// for integers/strings, 1e-9-relative for doubles). Used to verify that
/// every placement strategy computes bit-identical query results.
inline ::testing::AssertionResult TablesEqual(const Table& a, const Table& b) {
  if (a.num_columns() != b.num_columns()) {
    return ::testing::AssertionFailure()
           << "column count " << a.num_columns() << " vs " << b.num_columns();
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row count " << a.num_rows() << " vs " << b.num_rows();
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = *a.columns()[c];
    const Column& cb = *b.columns()[c];
    if (ca.name() != cb.name()) {
      return ::testing::AssertionFailure()
             << "column " << c << " name " << ca.name() << " vs " << cb.name();
    }
    if (ca.type() != cb.type()) {
      return ::testing::AssertionFailure()
             << "column " << ca.name() << " type mismatch";
    }
    for (size_t r = 0; r < a.num_rows(); ++r) {
      bool equal = true;
      std::string va, vb;
      switch (ca.type()) {
        case DataType::kInt32: {
          const auto x = static_cast<const Int32Column&>(ca).value(r);
          const auto y = static_cast<const Int32Column&>(cb).value(r);
          equal = x == y;
          va = std::to_string(x);
          vb = std::to_string(y);
          break;
        }
        case DataType::kInt64: {
          const auto x = static_cast<const Int64Column&>(ca).value(r);
          const auto y = static_cast<const Int64Column&>(cb).value(r);
          equal = x == y;
          va = std::to_string(x);
          vb = std::to_string(y);
          break;
        }
        case DataType::kDouble: {
          const double x = static_cast<const DoubleColumn&>(ca).value(r);
          const double y = static_cast<const DoubleColumn&>(cb).value(r);
          const double scale = std::max({std::abs(x), std::abs(y), 1.0});
          equal = std::abs(x - y) <= 1e-9 * scale;
          va = std::to_string(x);
          vb = std::to_string(y);
          break;
        }
        case DataType::kString: {
          const auto x = static_cast<const StringColumn&>(ca).value(r);
          const auto y = static_cast<const StringColumn&>(cb).value(r);
          equal = x == y;
          va = std::string(x);
          vb = std::string(y);
          break;
        }
      }
      if (!equal) {
        return ::testing::AssertionFailure()
               << "column " << ca.name() << " row " << r << ": " << va
               << " vs " << vb;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Tiny star-shaped database for engine tests: fact(fk, v) x 1000 rows,
/// dim(key, name) x 10 rows.
inline DatabasePtr MakeTinyDb() {
  auto db = std::make_shared<Database>();
  auto fact = std::make_shared<Table>("fact");
  std::vector<int32_t> fk(1000), v(1000);
  for (int i = 0; i < 1000; ++i) {
    fk[i] = i % 10 + 1;
    v[i] = i % 97;
  }
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("fk", std::move(fk))).ok());
  EXPECT_TRUE(
      fact->AddColumn(std::make_shared<Int32Column>("v", std::move(v))).ok());
  EXPECT_TRUE(db->AddTable(fact).ok());

  auto dim = std::make_shared<Table>("dim");
  std::vector<int32_t> key(10);
  auto name = StringColumn::FromDictionary(
      "name", {"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "d8", "d9"});
  for (int i = 0; i < 10; ++i) {
    key[i] = i + 1;
    name->AppendCode(i);
  }
  EXPECT_TRUE(
      dim->AddColumn(std::make_shared<Int32Column>("key", std::move(key))).ok());
  EXPECT_TRUE(dim->AddColumn(std::move(name)).ok());
  EXPECT_TRUE(db->AddTable(dim).ok());
  return db;
}

/// FusedPipeline nodes in a plan tree.
inline size_t CountFusedNodes(const PlanNodePtr& root) {
  size_t count = 0;
  VisitPlanPostOrder(root, [&count](const PlanNodePtr& node) {
    if (node->op() == PlanOp::kFusedPipeline) ++count;
  });
  return count;
}

/// Fused-pipeline nodes registered in `stats` that ran (rows_out recorded).
inline int FusedNodesRan(const QueryStats& stats) {
  int ran = 0;
  for (const auto& node : stats.nodes()) {
    if (node->op == "fused_pipeline" && node->rows_out.load() >= 0) ++ran;
  }
  return ran;
}

/// Sets the plan-fusion knob for one scope.
class FusionScope {
 public:
  explicit FusionScope(bool fusion) : saved_(GlobalKernelConfig().fusion) {
    GlobalKernelConfig().fusion = fusion;
  }
  ~FusionScope() { GlobalKernelConfig().fusion = saved_; }

  FusionScope(const FusionScope&) = delete;
  FusionScope& operator=(const FusionScope&) = delete;

 private:
  bool saved_;
};

/// Engine configuration for unit tests: no sleeps, roomy device.
inline SystemConfig TestConfig() {
  SystemConfig config;
  config.simulate_time = false;
  config.device_memory_bytes = 1ull << 20;
  config.device_cache_bytes = 512ull << 10;
  return config;
}

}  // namespace hetdb

#endif  // HETDB_TESTS_TEST_UTIL_H_
