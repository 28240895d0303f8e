#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/engine_context.h"
#include "placement/strategy_runner.h"
#include "server/server.h"
#include "ssb/ssb_queries.h"

namespace perfbench {

/// How a workload's clients reach the engine.
enum class ClientPath {
  /// Builder plan -> OptimizePlan -> StrategyRunner::RunQuery.
  kRunner,
  /// SQL text -> PlanSql -> Session::Submit on one Server.
  kServer,
};

/// One closed-loop workload. Every workload runs the paper's headline
/// strategy (data-driven placement + query chopping) on the default
/// SystemConfig machine with fusion on; they differ in data size, client
/// count, client path, clock, and whether the query mix shifts.
struct WorkloadSpec {
  std::string name;
  double scale_factor = 1.0;
  int clients = 1;
  ClientPath path = ClientPath::kRunner;
  /// Modeled clock (the simulator sleeps for device/PCIe/CPU durations) or
  /// host clock (only the real engine's time counts).
  bool simulate_time = false;
  /// Multiplier on every modeled duration (modeled clock only).
  double time_scale = 1.0;
  /// > 0: the mix alternates between Q1.x-Q2.x and Q3.x-Q4.x every this
  /// many seconds, and a background thread re-runs the data placement job
  /// at each switch. 0: all 13 queries for the whole run.
  double phase_seconds = 0.0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// One client call as the benchmark saw it. Times are on the trace
/// recorder's clock (microseconds) so they line up with engine spans.
struct QuerySample {
  int query = 0;          ///< index into SsbQueries()
  bool ok = false;        ///< the engine returned a result
  bool correct = false;   ///< ... whose checksum matched the reference
  bool in_window = false; ///< completed before the phase deadline
  int64_t submit_us = 0;
  int64_t end_us = 0;
  double plan_us = -1;      ///< PlanSql time; -1 when not called
  double optimize_us = -1;  ///< OptimizePlan time; -1 when not called
  // Read back from the query's QueryStats after it returned.
  uint64_t query_id = 0;
  int64_t queue_wait_us = 0;
  int64_t run_us = 0;
  int64_t operators = 0;
  int64_t heap_high_water = 0;
  int64_t transfer_us = 0;

  double latency_ms() const {
    return static_cast<double>(end_us - submit_us) / 1000.0;
  }
};

/// Engine counters over one measured phase (deltas; the phase starts from
/// reset stats).
struct PhaseCounters {
  uint64_t cpu_ops = 0;
  uint64_t gpu_ops = 0;
  uint64_t gpu_aborts = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_insertions = 0;
  uint64_t cache_evictions = 0;
  uint64_t h2d_bytes = 0;
  uint64_t d2h_bytes = 0;
  uint64_t failed_allocations = 0;
  int64_t modeled_us = 0;
  int64_t admission_shed = 0;
  int64_t admission_failed = 0;
};

struct PhaseResult {
  double seconds = 0;
  /// Process CPU time (user + system) from the phase start until its last
  /// client returned.
  double cpu_seconds = 0;
  std::vector<QuerySample> samples;  ///< every call issued in the phase
  PhaseCounters counters;
};

/// Owns one workload's database, engine, and clients.
class Harness {
 public:
  Harness(WorkloadSpec spec, uint64_t seed);

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// Generates the data, computes CPU-only reference checksums for the
  /// builder and SQL form of every query, builds the engine, runs one
  /// checked warm-up pass, and runs the initial placement job. Replaces
  /// any earlier setup. Returns false (with `error`) if any step failed.
  bool Setup(std::string* error);

  /// Runs the closed loop for `seconds` from freshly reset engine stats.
  PhaseResult Run(double seconds);

  const WorkloadSpec& spec() const { return spec_; }
  int clients() const { return clients_; }
  /// Benchmark-side timers pooled over setup and every phase run so far.
  const std::vector<double>& plan_us() const { return plan_us_; }
  const std::vector<double>& optimize_us() const { return optimize_us_; }
  const std::vector<double>& refresh_ms() const { return refresh_ms_; }
  static const std::vector<hetdb::NamedQuery>& Queries();

 private:
  struct Client;

  hetdb::StrategyRunner& runner();
  void RunClient(Client& client, const std::atomic<int>& half,
                 int64_t deadline_us, std::vector<QuerySample>* out);
  QuerySample RunOne(Client& client, int query);
  double TimedRefresh();
  void ResetStats();
  PhaseCounters ReadCounters(int64_t modeled_before);

  WorkloadSpec spec_;
  uint64_t seed_;
  int clients_;
  uint64_t phases_run_ = 0;
  hetdb::DatabasePtr db_;
  /// What a correct result looks like, per query and plan form ([0]
  /// builder plan, [1] SQL plan): the CPU-only result's checksum, and the
  /// query's ORDER BY, which every result must also be sorted by.
  struct Reference {
    std::array<uint64_t, 2> checksum = {0, 0};
    std::array<std::vector<hetdb::SortKey>, 2> order;
  };
  std::vector<Reference> reference_;
  // Declared so that sessions, then runner/server, then the context are
  // destroyed in that order.
  std::unique_ptr<hetdb::EngineContext> ctx_;
  std::unique_ptr<hetdb::Server> server_;          // kServer
  std::unique_ptr<hetdb::StrategyRunner> runner_;  // kRunner
  std::vector<hetdb::SessionPtr> sessions_;
  std::vector<double> plan_us_;
  std::vector<double> optimize_us_;
  std::vector<double> refresh_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
