// run_query: execute one SSB query and print a checksum of its result.
//
// The CI smokes run each query with --fusion=off and --fusion=on, and with
// and without --sql, and diff the stdout lines: neither operator fusion
// (DESIGN.md §11) nor planning from SQL may change a result. Informational
// output (timing, heap footprint) goes to stderr so stdout stays
// diff-stable. The query's modeled micros (the simulator's accumulated
// clock: kernel windows plus PCIe, nothing slept) are printed on stderr.
//
// Usage:
//   run_query [--query Q2.1] [--fusion=on|off] [--sf 0.2]
//             [--strategy cpu|gpu|chopping] [--sql]
//
// --sql plans the query from its SQL text (SsbQuerySql) instead of its
// hand-built plan.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.h"
#include "placement/strategy_runner.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "ssb/ssb_queries.h"

namespace hetdb {
namespace {

// FNV-1a over the result's raw value storage, column by column.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void String(const std::string& s) { Bytes(s.data(), s.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t ChecksumTable(const Table& table) {
  Fnv1a hash;
  for (const ColumnPtr& column : table.columns()) {
    hash.String(column->name());
    switch (column->type()) {
      case DataType::kInt32: {
        const auto& values = ColumnCast<Int32Column>(*column).values();
        hash.Bytes(values.data(), values.size() * sizeof(int32_t));
        break;
      }
      case DataType::kInt64: {
        const auto& values = ColumnCast<Int64Column>(*column).values();
        hash.Bytes(values.data(), values.size() * sizeof(int64_t));
        break;
      }
      case DataType::kDouble: {
        const auto& values = ColumnCast<DoubleColumn>(*column).values();
        hash.Bytes(values.data(), values.size() * sizeof(double));
        break;
      }
      case DataType::kString: {
        const auto& strings = ColumnCast<StringColumn>(*column);
        hash.Bytes(strings.codes().data(),
                   strings.codes().size() * sizeof(int32_t));
        for (const std::string& entry : strings.dictionary()) {
          hash.String(entry);
        }
        break;
      }
    }
  }
  return hash.value();
}

int Run(int argc, char** argv) {
  std::string query_name = "Q2.1";
  std::string strategy_name = "gpu";
  double scale_factor = 0.2;
  bool fusion = true;
  bool from_sql = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--query=", 0) == 0) {
      query_name = value("--query=");
    } else if (arg == "--query" && i + 1 < argc) {
      query_name = argv[++i];
    } else if (arg.rfind("--fusion=", 0) == 0) {
      fusion = std::string(value("--fusion=")) == "on";
    } else if (arg.rfind("--sf=", 0) == 0) {
      scale_factor = std::atof(value("--sf="));
    } else if (arg == "--sf" && i + 1 < argc) {
      scale_factor = std::atof(argv[++i]);
    } else if (arg.rfind("--strategy=", 0) == 0) {
      strategy_name = value("--strategy=");
    } else if (arg == "--strategy" && i + 1 < argc) {
      strategy_name = argv[++i];
    } else if (arg == "--sql") {
      from_sql = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  Strategy strategy = Strategy::kGpuOnly;
  if (strategy_name == "cpu") {
    strategy = Strategy::kCpuOnly;
  } else if (strategy_name == "gpu") {
    strategy = Strategy::kGpuOnly;
  } else if (strategy_name == "chopping") {
    strategy = Strategy::kDataDrivenChopping;
  } else {
    std::fprintf(stderr, "unknown strategy: %s\n", strategy_name.c_str());
    return 2;
  }

  GlobalKernelConfig().fusion = fusion;

  SsbGeneratorOptions options;
  options.scale_factor = scale_factor;
  DatabasePtr db = GenerateSsbDatabase(options);

  SystemConfig config;
  config.simulate_time = false;
  EngineContext ctx(config, db);
  StrategyRunner runner(&ctx, strategy);
  runner.RefreshDataPlacement();

  Result<NamedQuery> query = SsbQueryByName(query_name);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 2;
  }
  Result<PlanNodePtr> plan = from_sql
                                 ? PlanSql(SsbQuerySql(query_name).value(), *db)
                                 : query->builder(*db);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 2;
  }
  QueryStatsPtr stats = std::make_shared<QueryStats>();
  const int64_t clock_before = ctx.simulator().clock().total_charged_micros();
  Result<TablePtr> result = runner.RunQuery(plan.value(), stats);
  const int64_t modeled_micros =
      ctx.simulator().clock().total_charged_micros() - clock_before;
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "# %s strategy=%s fusion=%s plan=%s heap_high_water=%lld "
               "modeled_us=%lld\n",
               query_name.c_str(), strategy_name.c_str(),
               fusion ? "on" : "off", from_sql ? "sql" : "builder",
               static_cast<long long>(stats->heap_high_water()),
               static_cast<long long>(modeled_micros));
  // stdout: stable across fusion on/off, strategy and --sql — the CI smokes
  // diff it.
  std::printf("%s rows=%zu cols=%zu checksum=%016llx\n", query_name.c_str(),
              result.value()->num_rows(), result.value()->num_columns(),
              static_cast<unsigned long long>(ChecksumTable(*result.value())));
  return 0;
}

}  // namespace
}  // namespace hetdb

int main(int argc, char** argv) { return hetdb::Run(argc, argv); }
