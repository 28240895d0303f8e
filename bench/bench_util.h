#ifndef HETDB_BENCH_BENCH_UTIL_H_
#define HETDB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.h"
#include "placement/strategy_runner.h"
#include "ssb/ssb_generator.h"
#include "telemetry/exporters.h"
#include "telemetry/trace_recorder.h"
#include "tpch/tpch_generator.h"
#include "workload/workload.h"

namespace hetdb::bench {

/// Destination of the --trace-out flag (process-wide; written at exit).
inline std::string& TraceOutPath() {
  static std::string path;
  return path;
}

/// Enables span recording and registers an atexit hook that exports the
/// whole process's trace as Chrome trace-event JSON (open the file in
/// https://ui.perfetto.dev or chrome://tracing).
inline void EnableTraceExportAtExit(const std::string& path) {
  TraceOutPath() = path;
  TraceRecorder::Global().SetEnabled(true);
  std::atexit([] {
    const std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
    const Status status = WriteChromeTrace(TraceOutPath(), events);
    if (status.ok()) {
      std::fprintf(stderr, "# wrote %zu trace events to %s\n", events.size(),
                   TraceOutPath().c_str());
    } else {
      std::fprintf(stderr, "# trace export failed: %s\n",
                   status.ToString().c_str());
    }
  });
}

/// Command-line knobs shared by every figure benchmark:
///   --quick          halve repetitions and shrink sweeps (CI-friendly)
///   --full           paper-sized sweeps (slow)
///   --time-scale X   multiply all modeled durations (ratios unchanged)
///   --trace-out=FILE record spans and export a Perfetto-loadable
///                    Chrome trace-event JSON file at exit
///   --per-query      print the per-query resource breakdown (queue-wait vs
///                    execute time, retry/fallback counts) after each point
///   --seed N         override every RNG seed in the run — data generators
///                    and user-session jitter streams (0 = keep the baked-in
///                    defaults: SSB 42, TPC-H 1234, sessions 42)
///   --think-time MS  mean exponential per-session think time for the
///                    parallel-user benches (0 = closed loop, the default)
///   --fusion=on|off  enable/disable operator fusion (DESIGN.md §11) for the
///                    whole process — the fusion-ablation runs flip this
///   --json FILE      write the bench's machine-readable artifact (benches
///                    that produce one; see WriteJsonArtifact)
struct BenchArgs {
  bool quick = false;
  bool full = false;
  bool per_query = false;
  bool fusion = true;
  double time_scale = 1.0;
  uint64_t seed = 0;
  double think_time_ms = 0;
  std::string trace_out;
  std::string json_out;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) args.quick = true;
      if (std::strcmp(argv[i], "--full") == 0) args.full = true;
      if (std::strcmp(argv[i], "--per-query") == 0) args.per_query = true;
      if (std::strcmp(argv[i], "--time-scale") == 0 && i + 1 < argc) {
        args.time_scale = std::atof(argv[++i]);
      }
      if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
      } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
        args.seed = std::strtoull(argv[++i], nullptr, 10);
      }
      if (std::strcmp(argv[i], "--think-time") == 0 && i + 1 < argc) {
        args.think_time_ms = std::atof(argv[++i]);
      }
      if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
        args.trace_out = argv[i] + 12;
      } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
        args.trace_out = argv[++i];
      }
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json_out = argv[++i];
      }
      if (std::strcmp(argv[i], "--fusion=off") == 0) args.fusion = false;
      if (std::strcmp(argv[i], "--fusion=on") == 0) args.fusion = true;
    }
    if (!args.trace_out.empty()) EnableTraceExportAtExit(args.trace_out);
    GlobalKernelConfig().fusion = args.fusion;
    return args;
  }

  /// Copies the --seed override into a generator-options struct (SSB or
  /// TPC-H); 0 keeps the generator's own default so existing baselines stay
  /// bit-identical.
  template <typename GeneratorOptions>
  void ApplySeed(GeneratorOptions& gen) const {
    if (seed != 0) gen.seed = seed;
  }

  /// Folds the session knobs (--seed, --think-time) into workload options.
  void ApplySessionKnobs(WorkloadRunOptions& options) const {
    if (seed != 0) options.seed = seed;
    options.think_time_ms = think_time_ms;
  }
};

/// The JSON fields of one workload point shared by the bench artifacts
/// (fig14_scale_ssb, fig18_scaleout): `"wall_millis": ..., ...`, without
/// braces, so a bench can append its own fields.
inline std::string RunResultJsonFields(const WorkloadRunResult& result) {
  return "\"wall_millis\": " + std::to_string(result.wall_millis) +
         ", \"gpu_aborts\": " + std::to_string(result.gpu_aborts) +
         ", \"failed_queries\": " + std::to_string(result.failed_queries) +
         ", \"queries_run\": " + std::to_string(result.queries_run) +
         ", \"gpu_operators\": " + std::to_string(result.gpu_operators) +
         ", \"cpu_operators\": " + std::to_string(result.cpu_operators) +
         ", \"h2d_bytes\": " + std::to_string(result.h2d_bytes);
}

/// Writes a bench's JSON artifact to `path` (the --json flag; nothing when
/// empty). Returns false, after reporting on stderr, if the file cannot be
/// written; benches then exit non-zero.
inline bool WriteJsonArtifact(const std::string& path,
                              const std::string& json) {
  if (path.empty()) return true;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("# JSON artifact written to %s\n", path.c_str());
  return true;
}

/// The simulated machine of the paper's evaluation (Section 6.1), at the
/// 1/100 data scale of DESIGN.md: the 4 GB GTX 770 becomes a 40 MB device
/// (24 MB data cache + 16 MB heap), PCIe and kernel throughputs use the
/// calibration constants of common/config.h.
inline SystemConfig PaperConfig(double time_scale = 1.0) {
  SystemConfig config;
  config.device_memory_bytes = 40ull << 20;
  config.device_cache_bytes = 24ull << 20;
  config.simulate_time = true;
  // Modeled durations are amplified 10x so that the *real* kernel work
  // (which executes on the host to produce correct results, is identical for
  // every strategy, and serializes on small machines) stays a minor additive
  // term rather than masking the modeled differences. A pure scale factor on
  // all durations changes no ratio between strategies.
  config.time_scale = 10.0 * time_scale;
  return config;
}

/// Prints one experiment banner: which paper figure this regenerates and
/// with which fixed parameters.
inline void Banner(const std::string& figure, const std::string& description) {
  std::printf("# %s\n# %s\n#\n", figure.c_str(), description.c_str());
}

/// Fixed-width row printing for series tables.
inline void PrintHeader(const std::vector<std::string>& columns) {
  for (const std::string& column : columns) {
    std::printf("%-24s", column.c_str());
  }
  std::printf("\n");
}

inline void PrintCell(const std::string& value) {
  std::printf("%-24s", value.c_str());
}

inline void PrintCell(double value) { std::printf("%-24.2f", value); }

inline void PrintCell(uint64_t value) {
  std::printf("%-24llu", static_cast<unsigned long long>(value));
}

inline void EndRow() { std::printf("\n"); }

/// Formats bytes as mebibytes.
inline std::string Mib(size_t bytes) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f MiB",
                static_cast<double>(bytes) / (1 << 20));
  return buffer;
}

/// Runs one (strategy, workload) point against a fresh engine context.
inline WorkloadRunResult RunPoint(const SystemConfig& config,
                                  const DatabasePtr& db, Strategy strategy,
                                  const std::vector<NamedQuery>& queries,
                                  const WorkloadRunOptions& options,
                                  EvictionPolicy policy = EvictionPolicy::kLfu) {
  EngineContext ctx(config, db, policy);
  StrategyRunner runner(&ctx, strategy);
  return RunWorkload(runner, queries, options);
}

// --- Heap-contention experiment family (Figures 3, 7, 9, 12, 13) -----------

/// Machine for the Appendix B.2 parallel selection workload: the cache holds
/// the two filter columns (no thrashing), and the heap fits roughly seven
/// concurrent selection operators — the paper's n = M / (3.25 |C|) ~ 7
/// contention threshold (Section 3.4).
inline SystemConfig ContentionConfig(const DatabasePtr& db,
                                     double time_scale) {
  const size_t column_bytes =
      db->GetColumnByQualifiedName("lineorder.lo_discount")
          .value()
          ->data_bytes();
  SystemConfig config = PaperConfig(time_scale);
  config.device_cache_bytes = 3 * column_bytes;
  // The paper's contention threshold: the heap fits n = M / (3.25 |C|) ~ 7
  // concurrent selection operators (Section 3.4). Our selection's peak
  // per-query footprint (1.25x intermediates over both filter columns plus
  // the materialized output) matches 3.25x one column closely.
  config.device_memory_bytes =
      config.device_cache_bytes +
      static_cast<size_t>(7 * 3.25 * column_bytes);
  return config;
}

inline std::vector<int> UserSweep(const BenchArgs& args) {
  if (args.quick) return {1, 4, 8, 16};
  if (args.full) return {1, 2, 4, 6, 8, 10, 12, 16, 20};
  return {1, 2, 4, 8, 12, 16, 20};
}

/// Runs the B.2 workload for one strategy over the user sweep and prints the
/// chosen metric columns. `metrics` selects what to print per point.
enum class ContentionMetric { kWallMillis, kH2dMillis, kAborts, kWastedMillis };

inline void RunContentionSweep(const BenchArgs& args, const DatabasePtr& db,
                               const std::vector<Strategy>& strategies,
                               const std::vector<ContentionMetric>& metrics,
                               int total_queries) {
  const SystemConfig config = ContentionConfig(db, args.time_scale);
  std::vector<std::string> header = {"users"};
  for (Strategy strategy : strategies) {
    for (ContentionMetric metric : metrics) {
      std::string suffix;
      switch (metric) {
        case ContentionMetric::kWallMillis:
          suffix = "[ms]";
          break;
        case ContentionMetric::kH2dMillis:
          suffix = "_h2d[ms]";
          break;
        case ContentionMetric::kAborts:
          suffix = "_aborts";
          break;
        case ContentionMetric::kWastedMillis:
          suffix = "_wasted[ms]";
          break;
      }
      header.push_back(std::string(StrategyToString(strategy)) + suffix);
    }
  }
  PrintHeader(header);

  std::vector<std::string> per_query_lines;
  for (int users : UserSweep(args)) {
    PrintCell(static_cast<uint64_t>(users));
    for (Strategy strategy : strategies) {
      WorkloadRunOptions options;
      options.repetitions = total_queries;  // B.2 has one query per pass
      options.num_users = users;
      const WorkloadRunResult result = RunPoint(
          config, db, strategy, ParallelSelectionQueries(), options);
      if (args.per_query) {
        per_query_lines.push_back(
            "# users=" + std::to_string(users) + " strategy=" +
            StrategyToString(strategy) + "\n" + result.PerQueryToString());
      }
      for (ContentionMetric metric : metrics) {
        switch (metric) {
          case ContentionMetric::kWallMillis:
            PrintCell(result.wall_millis);
            break;
          case ContentionMetric::kH2dMillis:
            PrintCell(result.h2d_transfer_millis);
            break;
          case ContentionMetric::kAborts:
            PrintCell(result.gpu_aborts);
            break;
          case ContentionMetric::kWastedMillis:
            PrintCell(result.wasted_millis);
            break;
        }
      }
    }
    EndRow();
  }
  for (const std::string& line : per_query_lines) {
    std::printf("%s\n", line.c_str());
  }
}

}  // namespace hetdb::bench

#endif  // HETDB_BENCH_BENCH_UTIL_H_
