// End-to-end benchmark of the HetDB engine: closed-loop SSB clients on the
// paper's headline strategy (data-driven placement + query chopping), on the
// host clock and on the modeled clock. See perfbench/METRICS.md for what
// each workload and metric is for.
//
//   perfbench --workload ssb_stream_host --seed 1 --seconds 10 --trace 0
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures half of --seconds untraced and half traced, and reports the
// per-layer metrics, the tracing overhead, and a Chrome trace.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits non-zero if any query failed or returned a result whose
// checksum differs from the CPU-only reference.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checksum.h"
#include "common/config.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "ssb_sql.h"
#include "stats.h"
#include "storage/column.h"
#include "telemetry/exporters.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir;
  std::string commit = "unknown";
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      args->selftest = true;
    } else if (arg == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      args->trace = std::atoi(argv[++i]);
    } else if (arg == "--out-dir" && has_value) {
      args->out_dir = argv[++i];
    } else if (arg == "--commit" && has_value) {
      args->commit = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && args->seconds > 0 &&
          (args->trace == 0 || args->trace == 1));
}

std::string Num(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

/// One reported metric. `base` names the counts a ratio or mean is taken
/// over, so no ratio is printed without them.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string base = "") {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), std::move(base)});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %14s %-10s%s\n", m.name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str(),
                  m.base.empty() ? "" : ("  [" + m.base + "]").c_str());
    }
  }
  std::string Json(const std::vector<std::string>& skip) const {
    std::string out = "{";
    for (const Metric& m : metrics_) {
      if (std::find(skip.begin(), skip.end(), m.name) != skip.end()) continue;
      if (out.size() > 1) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

std::string CpuModel() {
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::pair<std::string, std::string>> HostStamp(
    const Args& args, const Harness& harness) {
  const WorkloadSpec& spec = harness.spec();
  const hetdb::SystemConfig config;
  return {
      {"workload", spec.name},
      {"seed", std::to_string(args.seed)},
      {"seconds", Num(args.seconds)},
      {"trace", std::to_string(args.trace)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", CpuModel()},
      {"compiler", "g++ " __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"ndebug", "1"},
      {"commit", args.commit},
      {"strategy", "data_driven_chopping"},
      {"fusion", hetdb::GlobalKernelConfig().fusion ? "on" : "off"},
      {"scale_factor", Num(spec.scale_factor)},
      {"clients", std::to_string(harness.clients())},
      {"client_path", spec.path == ClientPath::kServer
                          ? "PlanSql+Session::Submit"
                          : "OptimizePlan+StrategyRunner::RunQuery"},
      {"clock", spec.simulate_time ? "modeled" : "host"},
      {"time_scale", Num(spec.time_scale)},
      {"phase_seconds", Num(spec.phase_seconds)},
      {"device_memory_bytes", std::to_string(config.device_memory_bytes)},
      {"device_cache_bytes", std::to_string(config.device_cache_bytes)},
      {"cpu_workers", std::to_string(config.cpu_workers)},
      {"gpu_workers", std::to_string(config.gpu_workers)},
  };
}

/// Queries that completed inside the phase window with a correct result.
std::vector<const QuerySample*> Good(const PhaseResult& phase) {
  std::vector<const QuerySample*> good;
  for (const QuerySample& s : phase.samples) {
    if (s.in_window && s.correct) good.push_back(&s);
  }
  return good;
}

double Qps(const PhaseResult& phase) {
  return static_cast<double>(Good(phase).size()) / phase.seconds;
}

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;  ///< engine returned an error
  int64_t wrong = 0;   ///< result checksum differs from the reference
};

Outcome Count(const std::vector<const PhaseResult*>& phases) {
  Outcome o;
  for (const PhaseResult* phase : phases) {
    for (const QuerySample& s : phase->samples) {
      ++o.attempted;
      if (!s.ok) ++o.failed;
      if (s.ok && !s.correct) ++o.wrong;
    }
  }
  return o;
}

void AddEndToEnd(const PhaseResult& phase, const Outcome& outcome,
                 double setup_s, size_t setups, Report* report) {
  std::vector<double> latency;
  for (const QuerySample* s : Good(phase)) latency.push_back(s->latency_ms());
  const double p50 = Percentile(latency, 50);
  const double p95 = Percentile(latency, 95);
  const double p99 = Percentile(latency, 99);
  const std::string n = "n=" + std::to_string(latency.size());
  report->Add("throughput_qps", Qps(phase), "1/s",
              n + " correct in " + Num(phase.seconds) + " s");
  report->Add("latency_p50_ms", p50, "ms", n);
  report->Add("latency_p95_ms", p95, "ms",
              n + ", " + std::to_string(CountAbove(latency, p95)) +
                  " beyond p95");
  report->Add("latency_p99_ms", p99, "ms",
              n + ", " + std::to_string(CountAbove(latency, p99)) +
                  " beyond p99; not gated");
  report->Add("error_rate",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed + outcome.wrong) /
                        static_cast<double>(outcome.attempted),
              "ratio",
              "(" + std::to_string(outcome.failed) + " failed + " +
                  std::to_string(outcome.wrong) + " wrong) / " +
                  std::to_string(outcome.attempted) + " attempted; not gated");
  report->Add("setup_s", setup_s, "s",
              "median of " + std::to_string(setups) + " setups");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-query trace-derived times: admission wait (first operator span start
/// minus the client's submit) and self time (client span minus the union of
/// its operator spans).
void AddTraceDerived(const PhaseResult& phase,
                     const std::vector<hetdb::TraceEvent>& events,
                     Report* report) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> ops;
  for (const hetdb::TraceEvent& e : events) {
    if (e.query_id != 0 && std::strcmp(e.category, "operator") == 0) {
      ops[e.query_id].emplace_back(e.ts_micros, e.ts_micros + e.dur_micros);
    }
  }
  std::vector<double> admission_ms;
  std::vector<double> self_ms;
  for (const QuerySample& s : phase.samples) {
    if (!s.ok) continue;
    const auto it = ops.find(s.query_id);
    if (it == ops.end()) continue;
    std::vector<std::pair<int64_t, int64_t>> clipped;
    int64_t first = INT64_MAX;
    for (const auto& [begin, end] : it->second) {
      first = std::min(first, begin);
      clipped.emplace_back(std::max(begin, s.submit_us),
                           std::min(end, s.end_us));
    }
    admission_ms.push_back(static_cast<double>(first - s.submit_us) / 1000.0);
    self_ms.push_back(
        static_cast<double>((s.end_us - s.submit_us) - UnionLength(clipped)) /
        1000.0);
  }
  const std::string n = "n=" + std::to_string(self_ms.size()) + " traced";
  report->Add("server.admission_wait_ms_p50", Percentile(admission_ms, 50),
              "ms", n);
  report->Add("query.self_ms_p50", Percentile(self_ms, 50), "ms", n);
}

void AddPerLayer(const Harness& harness, const PhaseResult& untraced,
                 const PhaseResult& traced,
                 const std::vector<hetdb::TraceEvent>& events,
                 Report* report) {
  std::vector<const QuerySample*> done;
  for (const QuerySample& s : traced.samples) {
    if (s.ok) done.push_back(&s);
  }
  const double queries = static_cast<double>(std::max<size_t>(done.size(), 1));
  const std::string per_query = "per query, n=" + std::to_string(done.size());
  auto mean_of = [&](auto field) {
    double sum = 0;
    for (const QuerySample* s : done) sum += static_cast<double>(field(*s));
    return sum / queries;
  };
  const PhaseCounters& c = traced.counters;

  report->Add("engine.queries", static_cast<double>(done.size()), "count",
              "completed in the traced phase");
  report->Add("sql.plan_us_p50", Percentile(harness.plan_us(), 50), "us",
              "n=" + std::to_string(harness.plan_us().size()));
  report->Add("engine.optimize_us_p50", Percentile(harness.optimize_us(), 50),
              "us", "n=" + std::to_string(harness.optimize_us().size()));
  report->Add("engine.queue_wait_ms",
              mean_of([](const QuerySample& s) { return s.queue_wait_us; }) /
                  1000.0,
              "ms", per_query);
  report->Add("engine.run_ms",
              mean_of([](const QuerySample& s) { return s.run_us; }) / 1000.0,
              "ms", per_query);
  report->Add("engine.operators_per_query",
              mean_of([](const QuerySample& s) { return s.operators; }),
              "count", per_query);
  report->Add("host.cpu_ms_per_query", traced.cpu_seconds * 1000.0 / queries,
              "ms",
              Num(traced.cpu_seconds) + " process CPU s / " +
                  std::to_string(done.size()) + " queries");

  hetdb::MetricRegistry& kernels = hetdb::GlobalKernelMetrics();
  for (const char* kernel :
       {"filter", "hash_join", "aggregate", "fused_pipeline"}) {
    const std::string k = kernel;
    const int64_t calls =
        kernels.GetCounter("kernel." + k + ".invocations").value();
    report->Add("operators." + k + ".calls_per_query",
                static_cast<double>(calls) / queries, "calls/query",
                std::to_string(calls) + " calls / " +
                    std::to_string(done.size()) + " queries");
    // With fusion on, SSB runs every join and aggregate inside a fused
    // pipeline; the standalone kernels' calls_per_query shows if that
    // changes, and their timings would only ever read 0.
    if (k == "hash_join" || k == "aggregate") continue;
    const hetdb::Histogram& latency =
        kernels.GetHistogram("kernel." + k + ".latency_us");
    const hetdb::Histogram& dop = kernels.GetHistogram("kernel." + k + ".dop");
    const std::string n = "n=" + std::to_string(latency.count()) + " calls";
    report->Add("operators." + k + ".us_p50",
                static_cast<double>(latency.Percentile(50)), "us", n);
    report->Add("operators." + k + ".dop_mean", dop.mean(), "workers", n);
  }

  const uint64_t ops = c.gpu_ops + c.cpu_ops;
  report->Add("placement.gpu_ops", static_cast<double>(c.gpu_ops), "count");
  report->Add("placement.cpu_ops", static_cast<double>(c.cpu_ops), "count");
  report->Add("placement.gpu_op_share",
              ops == 0 ? 0.0
                       : static_cast<double>(c.gpu_ops) /
                             static_cast<double>(ops),
              "ratio",
              std::to_string(c.gpu_ops) + " GPU / " + std::to_string(ops) +
                  " ops");
  report->Add("placement.gpu_aborts", static_cast<double>(c.gpu_aborts),
              "count");
  report->Add("placement.cpu_fallbacks_per_kq",
              static_cast<double>(c.gpu_aborts) * 1000.0 / queries, "1/kq",
              std::to_string(c.gpu_aborts) + " aborts / " +
                  std::to_string(done.size()) + " queries");
  report->Add("placement.refresh_ms_p50", Percentile(harness.refresh_ms(), 50),
              "ms", "n=" + std::to_string(harness.refresh_ms().size()));

  const uint64_t lookups = c.cache_hits + c.cache_misses;
  report->Add("cache.hits", static_cast<double>(c.cache_hits), "count");
  report->Add("cache.misses", static_cast<double>(c.cache_misses), "count");
  report->Add("cache.hit_ratio",
              lookups == 0 ? 0.0
                           : static_cast<double>(c.cache_hits) /
                                 static_cast<double>(lookups),
              "ratio",
              std::to_string(c.cache_hits) + " hits / " +
                  std::to_string(lookups) + " lookups");
  report->Add("cache.insertions", static_cast<double>(c.cache_insertions),
              "count");
  report->Add("cache.evictions", static_cast<double>(c.cache_evictions),
              "count");

  constexpr double kMiB = 1024.0 * 1024.0;
  int64_t heap_high_water = 0;
  for (const QuerySample* s : done) {
    heap_high_water = std::max(heap_high_water, s->heap_high_water);
  }
  report->Add("sim.h2d_mb", static_cast<double>(c.h2d_bytes) / kMiB, "MB");
  report->Add("sim.d2h_mb", static_cast<double>(c.d2h_bytes) / kMiB, "MB");
  report->Add("sim.pcie_modeled_ms_per_query",
              mean_of([](const QuerySample& s) { return s.transfer_us; }) /
                  1000.0,
              "ms", per_query);
  report->Add("sim.modeled_ms_per_query",
              static_cast<double>(c.modeled_us) / 1000.0 / queries, "ms",
              std::to_string(c.modeled_us) + " us charged / " +
                  std::to_string(done.size()) + " queries");
  report->Add("sim.heap_high_water_mb",
              static_cast<double>(heap_high_water) / kMiB, "MB",
              "max over queries");
  report->Add("sim.failed_allocations",
              static_cast<double>(c.failed_allocations), "count");

  report->Add("server.shed", static_cast<double>(c.admission_shed), "count");
  report->Add("server.failed", static_cast<double>(c.admission_failed),
              "count");
  AddTraceDerived(traced, events, report);

  const double untraced_qps = Qps(untraced);
  const double traced_qps = Qps(traced);
  auto qps_base = [](const PhaseResult& phase) {
    return std::to_string(Good(phase).size()) + " correct in " +
           Num(phase.seconds) + " s";
  };
  report->Add("telemetry.untraced_qps", untraced_qps, "1/s",
              qps_base(untraced));
  report->Add("telemetry.traced_qps", traced_qps, "1/s", qps_base(traced));
  report->Add("telemetry.trace_overhead_pct",
              untraced_qps == 0
                  ? 0.0
                  : (untraced_qps - traced_qps) / untraced_qps * 100.0,
              "%",
              "(" + Num(untraced_qps) + " - " + Num(traced_qps) + ") / " +
                  Num(untraced_qps) + " qps");
}

/// Printed for people but left out of the result line. error_rate reads 0
/// on correct code, so it cannot carry a relative bound; it reaches the
/// result line as `failed` / `attempted`. latency_p99_ms spread 16-30% of
/// its median between runs (a few scheduling stalls decide it), so the
/// gate uses p95 instead.
const std::vector<std::string> kUngated = {"error_rate", "latency_p99_ms"};

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what);
      ++failures;
    }
  };
  // Nearest-rank percentiles of {15, 20, 35, 40, 50}, worked by hand:
  // p30 -> rank ceil(1.5) = 2 -> 20; p40 -> rank 2 -> 20;
  // p50 -> rank ceil(2.5) = 3 -> 35; p100 -> rank 5 -> 50.
  const std::vector<double> five = {50, 15, 40, 20, 35};
  expect(Percentile(five, 30) == 20, "p30 of five");
  expect(Percentile(five, 40) == 20, "p40 of five");
  expect(Percentile(five, 50) == 35, "p50 of five");
  expect(Percentile(five, 100) == 50, "p100 of five");
  expect(Percentile({}, 50) == 0, "percentile of nothing");
  // 1..1000: p99 is the 990th value and leaves exactly ten beyond it.
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  expect(Percentile(thousand, 99) == 990, "p99 of 1..1000");
  expect(CountAbove(thousand, 990) == 10, "ten beyond p99 of 1..1000");
  // [0,10) + [5,20) + [30,40) cover 20 + 10.
  expect(UnionLength({{30, 40}, {0, 10}, {5, 20}}) == 30, "interval union");
  expect(UnionLength({{0, 10}, {2, 3}}) == 10, "nested interval union");

  // Checksums ignore row order but see every value.
  auto table = [](std::vector<int32_t> values) {
    auto column = std::make_shared<hetdb::Int32Column>("v");
    for (int32_t v : values) column->Append(v);
    hetdb::Table t("t");
    (void)t.AddColumn(column);
    return TableChecksum(t);
  };
  expect(table({1, 2, 3}) == table({3, 1, 2}), "checksum ignores row order");
  expect(table({1, 2, 3}) != table({1, 2, 4}), "checksum sees values");
  expect(table({1, 2}) != table({1, 2, 2}), "checksum sees row count");

  // The ORDER BY check sees what the checksum cannot: the same rows in the
  // wrong order. Keys as in Q3.x: d_year ascending, revenue descending.
  auto years_revenue = [](std::vector<int32_t> years,
                          std::vector<int64_t> revenue) {
    auto year = std::make_shared<hetdb::Int32Column>("d_year");
    auto rev = std::make_shared<hetdb::Int64Column>("revenue");
    for (int32_t y : years) year->Append(y);
    for (int64_t r : revenue) rev->Append(r);
    hetdb::Table t("t");
    (void)t.AddColumn(year);
    (void)t.AddColumn(rev);
    return t;
  };
  const std::vector<hetdb::SortKey> by_year_revenue = {{"d_year", true},
                                                       {"revenue", false}};
  const hetdb::Table in_order =
      years_revenue({1992, 1992, 1993, 1993}, {30, 10, 20, 20});
  const hetdb::Table reordered =
      years_revenue({1992, 1992, 1993, 1993}, {10, 30, 20, 20});
  expect(IsSortedBy(in_order, by_year_revenue), "sorted table passes");
  expect(TableChecksum(in_order) == TableChecksum(reordered),
         "reordered table has the same checksum");
  expect(!IsSortedBy(reordered, by_year_revenue), "reordered table fails");
  expect(!IsSortedBy(years_revenue({1993, 1992}, {1, 1}), by_year_revenue),
         "reordered first key fails");
  expect(IsSortedBy(reordered, {}), "no ORDER BY accepts any order");
  expect(!IsSortedBy(in_order, {{"lo_revenue", true}}),
         "missing ORDER BY column fails");

  // Every SSB query with an ORDER BY has its sort keys found, in both the
  // builder and the SQL plan; the others have none.
  hetdb::SsbGeneratorOptions tiny;
  tiny.scale_factor = 0.01;
  const hetdb::DatabasePtr db = hetdb::GenerateSsbDatabase(tiny);
  for (const hetdb::NamedQuery& query : Harness::Queries()) {
    const std::string sql = SsbSql(query.name);
    expect(!sql.empty(), "SQL text for every SSB query");
    const bool ordered = sql.find("ORDER BY") != std::string::npos;
    const hetdb::Result<hetdb::PlanNodePtr> built = query.builder(*db);
    const hetdb::Result<hetdb::PlanNodePtr> planned = hetdb::PlanSql(sql, *db);
    expect(built.ok() && planned.ok(), "SSB query plans");
    if (!built.ok() || !planned.ok()) continue;
    expect(OrderKeys(built.value()).empty() != ordered,
           "builder plan ORDER BY found");
    expect(OrderKeys(planned.value()).empty() != ordered,
           "SQL plan ORDER BY found");
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR] [--commit ID] | --selftest\n");
    return 2;
  }
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr, "refusing to record: unoptimised build (%s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (args.selftest) return SelfTest();
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  Harness harness(*spec, args.seed);
  const auto stamp = HostStamp(args, harness);
  for (const auto& [key, value] : stamp) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::fflush(stdout);

  // Set up several times and report the median, so work moved into setup
  // shows without one slow setup deciding the figure.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = std::chrono::steady_clock::now();
    std::string error;
    if (!harness.Setup(&error)) {
      std::fprintf(stderr, "setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  const double setup_median = Percentile(setup_s, 50);

  Report report;
  Outcome outcome;
  if (args.trace == 0) {
    const PhaseResult phase = harness.Run(args.seconds);
    outcome = Count({&phase});
    AddEndToEnd(phase, outcome, setup_median, setup_s.size(), &report);
  } else {
    // Half the measured time untraced, half traced: the per-layer numbers
    // come from the traced half, the overhead from comparing the two.
    const PhaseResult untraced = harness.Run(args.seconds / 2);
    hetdb::TraceRecorder& recorder = hetdb::TraceRecorder::Global();
    recorder.Clear();
    recorder.SetEnabled(true);
    const PhaseResult traced = harness.Run(args.seconds / 2);
    recorder.SetEnabled(false);
    const std::vector<hetdb::TraceEvent> events = recorder.Snapshot();
    outcome = Count({&untraced, &traced});
    AddPerLayer(harness, untraced, traced, events, &report);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/" + spec->name + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      const hetdb::Status written = hetdb::WriteChromeTrace(path, events);
      std::printf("# chrome_trace: %s (%s)\n", path.c_str(),
                  written.ok() ? "written" : written.ToString().c_str());
    }
  }

  const bool correct = outcome.wrong == 0;
  std::printf("%s (%s clock, %d clients):\n", spec->name.c_str(),
              spec->simulate_time ? "modeled" : "host", harness.clients());
  report.Print();
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(outcome.attempted) +
      ", \"failed\": " + std::to_string(outcome.failed + outcome.wrong) +
      ", \"metrics\": " + report.Json(kUngated) + "}";
  if (!args.out_dir.empty()) {
    std::string stamp_json = "{";
    for (const auto& [key, value] : stamp) {
      if (stamp_json.size() > 1) stamp_json += ", ";
      stamp_json += "\"" + key + "\": \"" + hetdb::JsonEscape(value) + "\"";
    }
    stamp_json += "}";
    (void)hetdb::WriteTextFile(
        args.out_dir + "/" + spec->name + "-seed" + std::to_string(args.seed) +
            "-trace" + std::to_string(args.trace) + ".json",
        "{\"stamp\": " + stamp_json + ", \"result\": " + result + "}\n");
  }
  std::printf("%s\n", result.c_str());
  return correct && outcome.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
