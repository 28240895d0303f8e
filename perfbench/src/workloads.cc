#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "checksum.h"
#include "engine/pipeline_builder.h"
#include "sql/planner.h"
#include "ssb/ssb_generator.h"
#include "ssb_sql.h"
#include "telemetry/query_stats.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_recorder.h"

namespace perfbench {

using hetdb::TraceRecorder;

namespace {

/// SplitMix64: derives independent, reproducible streams from one seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The data is the same for every seed, so the seed varies only what the
// clients do: their query-choice streams.
constexpr uint64_t kDataSeed = 42;

/// Q1.1-Q2.3 are the first half of the shifting mix, Q3.1-Q4.3 the second.
constexpr int kFirstHalfQueries = 6;

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const auto* workloads = new std::vector<WorkloadSpec>{
      {"ssb_stream_host", /*scale_factor=*/20, /*clients=*/1,
       ClientPath::kRunner, /*simulate_time=*/false, /*time_scale=*/1.0,
       /*phase_seconds=*/0},
      {"ssb_serve_host", 20, 4, ClientPath::kServer, false, 1.0, 0},
      // Time scale 4 on the gated modeled workloads: at 1.0 the simulated
      // device's modeled kernel time is shorter than the real kernel time
      // the simulator also spends, so wall time followed the host's load.
      {"ssb_serve_modeled", 10, 4, ClientPath::kServer, true, 4.0, 0},
      {"ssb_shift_modeled", 10, 4, ClientPath::kRunner, true, 4.0, 2.5},
  };
  return *workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const std::vector<hetdb::NamedQuery>& Harness::Queries() {
  static const auto* queries =
      new std::vector<hetdb::NamedQuery>(hetdb::SsbQueries());
  return *queries;
}

/// A closed-loop client: its own query-choice stream and, on the server
/// path, its own session. Queries are drawn from a shuffled deck per mix
/// half, so every query is equally likely and each run's mix is balanced
/// to within one deck.
struct Harness::Client {
  std::mt19937_64 rng;
  hetdb::SessionPtr session;
  std::array<std::vector<int>, 2> pool;
  std::array<std::vector<int>, 2> deck;
  std::array<size_t, 2> next = {0, 0};

  int Draw(int half) {
    std::vector<int>& d = deck[static_cast<size_t>(half)];
    size_t& n = next[static_cast<size_t>(half)];
    if (n >= d.size()) {
      d = pool[static_cast<size_t>(half)];
      std::shuffle(d.begin(), d.end(), rng);
      n = 0;
    }
    return d[n++];
  }
};

Harness::Harness(WorkloadSpec spec, uint64_t seed)
    : spec_(std::move(spec)),
      seed_(seed),
      clients_(std::max(1, std::min<int>(
                               spec_.clients,
                               static_cast<int>(std::max(
                                   1u, std::thread::hardware_concurrency()))))) {}

hetdb::StrategyRunner& Harness::runner() {
  return server_ != nullptr ? server_->runner() : *runner_;
}

bool Harness::Setup(std::string* error) {
  // Tear the previous engine down first: only one copy of the data is alive.
  sessions_.clear();
  server_.reset();
  runner_.reset();
  ctx_.reset();
  db_.reset();
  // Hand the freed data back to the OS so the peak RSS is one setup's
  // footprint, not whatever the allocator kept from the previous one.
  malloc_trim(0);
  reference_.assign(Queries().size(), Reference{});

  hetdb::SsbGeneratorOptions generator;
  generator.scale_factor = spec_.scale_factor;
  generator.seed = kDataSeed;
  db_ = hetdb::GenerateSsbDatabase(generator);

  {
    // CPU-only reference on the host clock: the result does not depend on
    // the clock, and the reference should not pay modeled sleeps.
    hetdb::SystemConfig config;
    config.simulate_time = false;
    hetdb::EngineContext ref_ctx(config, db_);
    hetdb::StrategyRunner cpu(&ref_ctx, hetdb::Strategy::kCpuOnly);
    for (size_t q = 0; q < Queries().size(); ++q) {
      const hetdb::NamedQuery& query = Queries()[q];
      hetdb::Result<hetdb::PlanNodePtr> built = query.builder(*db_);
      const auto plan_start = std::chrono::steady_clock::now();
      hetdb::Result<hetdb::PlanNodePtr> planned =
          hetdb::PlanSql(SsbSql(query.name), *db_);
      plan_us_.push_back(MicrosSince(plan_start));
      if (!built.ok() || !planned.ok()) {
        *error = query.name + ": " +
                 (built.ok() ? planned.status() : built.status()).ToString();
        return false;
      }
      const hetdb::PlanNodePtr plans[2] = {built.value(), planned.value()};
      for (int form = 0; form < 2; ++form) {
        const auto optimize_start = std::chrono::steady_clock::now();
        hetdb::PlanNodePtr optimized = hetdb::OptimizePlan(plans[form]);
        optimize_us_.push_back(MicrosSince(optimize_start));
        hetdb::Result<hetdb::TablePtr> result = cpu.RunQuery(optimized);
        if (!result.ok()) {
          *error = query.name + " reference: " + result.status().ToString();
          return false;
        }
        Reference& reference = reference_[q];
        const size_t f = static_cast<size_t>(form);
        reference.checksum[f] = TableChecksum(*result.value());
        reference.order[f] = OrderKeys(plans[form]);
        if (!IsSortedBy(*result.value(), reference.order[f])) {
          *error = query.name + " reference is not in ORDER BY order";
          return false;
        }
      }
    }
  }
  // The data placement job ranks columns by access count; start it from the
  // warm-up pass alone, not from the reference runs.
  for (const hetdb::TablePtr& table : db_->tables()) {
    for (const hetdb::ColumnPtr& column : table->columns()) {
      column->ResetAccessCount();
    }
  }

  hetdb::SystemConfig config;
  config.simulate_time = spec_.simulate_time;
  config.time_scale = spec_.time_scale;
  ctx_ = std::make_unique<hetdb::EngineContext>(config, db_);
  if (spec_.path == ClientPath::kServer) {
    server_ = std::make_unique<hetdb::Server>(ctx_.get());
    server_->RegisterTenant(hetdb::TenantSpec{"tenant-a"});
    server_->RegisterTenant(hetdb::TenantSpec{"tenant-b"});
    for (int c = 0; c < clients_; ++c) {
      sessions_.push_back(
          server_->OpenSession(c % 2 == 0 ? "tenant-a" : "tenant-b"));
    }
  } else {
    runner_ = std::make_unique<hetdb::StrategyRunner>(
        ctx_.get(), hetdb::Strategy::kDataDrivenChopping);
  }

  // Checked warm-up: every query once through the workload's client path.
  Client warmup;
  if (!sessions_.empty()) warmup.session = sessions_[0];
  for (size_t q = 0; q < Queries().size(); ++q) {
    const QuerySample sample = RunOne(warmup, static_cast<int>(q));
    if (sample.plan_us >= 0) plan_us_.push_back(sample.plan_us);
    if (sample.optimize_us >= 0) optimize_us_.push_back(sample.optimize_us);
    if (!sample.correct) {
      *error = Queries()[q].name + (sample.ok ? " warm-up result mismatch"
                                              : " warm-up failed");
      return false;
    }
  }
  refresh_ms_.push_back(TimedRefresh());
  return true;
}

double Harness::TimedRefresh() {
  const auto start = std::chrono::steady_clock::now();
  runner().RefreshDataPlacement();
  return MicrosSince(start) / 1000.0;
}

QuerySample Harness::RunOne(Client& client, int query) {
  const hetdb::NamedQuery& named = Queries()[static_cast<size_t>(query)];
  const bool via_server = spec_.path == ClientPath::kServer;
  TraceRecorder& recorder = TraceRecorder::Global();
  QuerySample sample;
  sample.query = query;
  auto stats = std::make_shared<hetdb::QueryStats>();

  sample.submit_us = recorder.NowMicros();
  const auto start = std::chrono::steady_clock::now();
  hetdb::Result<hetdb::TablePtr> result =
      hetdb::Status::Internal("query not run");
  if (via_server) {
    hetdb::Result<hetdb::PlanNodePtr> plan =
        hetdb::PlanSql(SsbSql(named.name), *db_);
    sample.plan_us = MicrosSince(start);
    if (plan.ok()) {
      hetdb::SubmitOptions options;
      options.stats = stats;
      options.name = named.name;
      result = client.session->Submit(plan.value(), options).get();
    } else {
      result = plan.status();
    }
  } else {
    hetdb::Result<hetdb::PlanNodePtr> plan = named.builder(*db_);
    if (plan.ok()) {
      const auto optimize_start = std::chrono::steady_clock::now();
      hetdb::PlanNodePtr optimized = hetdb::OptimizePlan(plan.value());
      sample.optimize_us = MicrosSince(optimize_start);
      result = runner().RunQuery(optimized, stats);
    } else {
      result = plan.status();
    }
  }
  sample.end_us = recorder.NowMicros();

  sample.ok = result.ok();
  const Reference& reference = reference_[static_cast<size_t>(query)];
  const size_t form = via_server ? 1 : 0;
  sample.correct =
      sample.ok &&
      TableChecksum(*result.value()) == reference.checksum[form] &&
      IsSortedBy(*result.value(), reference.order[form]);
  sample.query_id = stats->query_id();
  sample.queue_wait_us = stats->queue_wait_micros();
  sample.run_us = stats->run_micros();
  sample.operators = stats->operators_run();
  sample.heap_high_water = stats->heap_high_water();
  sample.transfer_us = stats->transfer_micros();

  if (TraceRecorder::enabled()) {
    hetdb::TraceEvent span;
    span.name = named.name;
    span.category = "client";
    span.ts_micros = sample.submit_us;
    span.dur_micros = sample.end_us - sample.submit_us;
    span.query_id = sample.query_id;
    span.args.emplace_back("correct", sample.correct ? "true" : "false");
    recorder.Record(std::move(span));
  }
  return sample;
}

void Harness::RunClient(Client& client, const std::atomic<int>& half,
                        int64_t deadline_us, std::vector<QuerySample>* out) {
  TraceRecorder& recorder = TraceRecorder::Global();
  while (recorder.NowMicros() < deadline_us) {
    QuerySample sample =
        RunOne(client, client.Draw(half.load(std::memory_order_relaxed)));
    sample.in_window = sample.end_us <= deadline_us;
    out->push_back(sample);
  }
}

void Harness::ResetStats() {
  ctx_->ResetRunStats();
  hetdb::GlobalKernelMetrics().Reset();
}

PhaseCounters Harness::ReadCounters(int64_t modeled_before) {
  PhaseCounters c;
  hetdb::Telemetry& telemetry = ctx_->telemetry();
  c.cpu_ops = telemetry.cpu_operators();
  c.gpu_ops = telemetry.gpu_operators();
  c.gpu_aborts = telemetry.gpu_operator_aborts();
  const hetdb::DataCacheStats cache = ctx_->cache().stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.cache_insertions = cache.insertions;
  c.cache_evictions = cache.evictions;
  hetdb::Simulator& sim = ctx_->simulator();
  c.h2d_bytes = sim.bus().transferred_bytes(hetdb::TransferDirection::kHostToDevice);
  c.d2h_bytes = sim.bus().transferred_bytes(hetdb::TransferDirection::kDeviceToHost);
  c.failed_allocations = sim.device_heap().failed_allocations();
  c.modeled_us = sim.clock().total_charged_micros() - modeled_before;
  c.admission_shed = telemetry.registry().GetCounter("admission.shed").value();
  c.admission_failed =
      telemetry.registry().GetCounter("admission.failed").value();
  return c;
}

PhaseResult Harness::Run(double seconds) {
  ResetStats();
  const int64_t modeled_before =
      ctx_->simulator().clock().total_charged_micros();
  const uint64_t phase = phases_run_++;

  std::vector<int> all(Queries().size());
  std::iota(all.begin(), all.end(), 0);
  std::vector<Client> clients(static_cast<size_t>(clients_));
  for (int c = 0; c < clients_; ++c) {
    Client& client = clients[static_cast<size_t>(c)];
    // Client c of the p-th phase run draws from stream 64 * p + c.
    client.rng.seed(
        DeriveSeed(seed_, phase * 64 + static_cast<uint64_t>(c)));
    if (!sessions_.empty()) client.session = sessions_[static_cast<size_t>(c)];
    if (spec_.phase_seconds > 0) {
      client.pool[0].assign(all.begin(), all.begin() + kFirstHalfQueries);
      client.pool[1].assign(all.begin() + kFirstHalfQueries, all.end());
    } else {
      client.pool[0] = all;
      client.pool[1] = all;
    }
  }

  // Q1.x-Q2.x always runs first. Algorithm 1 ranks columns by lifetime
  // access counts, so the first phase decides which columns stay pinned for
  // the rest of the run: starting with Q3.x-Q4.x settled at a p50 ~25%
  // lower than starting with Q1.x-Q2.x. A seed-chosen start half made the
  // benchmark bimodal across seeds; this start measures the slower path.
  std::atomic<int> half{0};
  TraceRecorder& recorder = TraceRecorder::Global();
  const double cpu_start = ProcessCpuSeconds();
  const int64_t start_us = recorder.NowMicros();
  const int64_t deadline_us = start_us + static_cast<int64_t>(seconds * 1e6);

  std::vector<std::vector<QuerySample>> per_client(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([this, &clients, &half, &per_client, c, deadline_us] {
      RunClient(clients[c], half, deadline_us, &per_client[c]);
    });
  }
  std::vector<double> refreshes;
  if (spec_.phase_seconds > 0) {
    // The paper's background placement job, re-run at every mix switch.
    const auto period = static_cast<int64_t>(spec_.phase_seconds * 1e6);
    threads.emplace_back([this, &half, &refreshes, &recorder, start_us,
                          deadline_us, period] {
      for (int64_t at = start_us + period; at < deadline_us; at += period) {
        const int64_t wait = at - recorder.NowMicros();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
        half.fetch_xor(1, std::memory_order_relaxed);
        refreshes.push_back(TimedRefresh());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.seconds = seconds;
  result.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  for (const std::vector<QuerySample>& samples : per_client) {
    for (const QuerySample& s : samples) {
      if (s.plan_us >= 0) plan_us_.push_back(s.plan_us);
      if (s.optimize_us >= 0) optimize_us_.push_back(s.optimize_us);
      result.samples.push_back(s);
    }
  }
  refresh_ms_.insert(refresh_ms_.end(), refreshes.begin(), refreshes.end());
  result.counters = ReadCounters(modeled_before);
  return result;
}

}  // namespace perfbench
