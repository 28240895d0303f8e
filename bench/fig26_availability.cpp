// Availability-under-chaos benchmark (fig26): 16 closed-loop SSB users drive
// the serving front-end while a scripted chaos timeline (ScenarioOrchestrator)
// walks the machine through device loss, a PCIe/kernel latency storm, and a
// device-heap squeeze, then lets it recover.
//
// The point under test is *coordinated graceful degradation*: the brownout
// controller steps its ladder (L0..L3) on the same signals the local
// defenses use, the stuck-query watchdog kills anything wedged, the serving
// layer hedges engine-side deaths onto the CPU-only path, and the system
// returns to L0 with its pre-episode tail latency once the chaos ends.
// Reported per phase: goodput, abort/shed counts, p99, brownout level; plus
// a recovery summary (time back to L0 + baseline-comparable p99, stranded
// queries, leaked device heap).
//
//   ./build/bench/fig26_availability                 # default timeline
//   ./build/bench/fig26_availability --quick         # CI smoke (short phases)
//   ./build/bench/fig26_availability --json out.json # machine-readable
//
// Gate: scripts/check_bench.py --availability out.json
//
// Shared flags (see bench_util.h): --quick --seed N --time-scale X

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fault/scenario.h"
#include "server/traffic.h"

using namespace hetdb;
using namespace hetdb::bench;

namespace {

struct AvailArgs {
  BenchArgs base;
  double phase_s = 4.0;          // measured window per timeline phase
  double recovery_window_s = 1.5;  // recovery probe window
  int max_recovery_windows = 10;
  double recovery_p99_factor = 3.0;  // p99 <= factor * baseline counts as
                                     // recovered (plus brownout back at L0)
  int sessions = 16;
  double think_time_ms = 50.0;
  double deadline_ms = 1000.0;
};

AvailArgs ParseAvailArgs(int argc, char** argv) {
  AvailArgs args;
  args.base = BenchArgs::Parse(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--phase" && i + 1 < argc) args.phase_s = std::atof(argv[++i]);
    if (arg == "--sessions" && i + 1 < argc) {
      args.sessions = std::atoi(argv[++i]);
    }
    if (arg == "--deadline-ms" && i + 1 < argc) {
      args.deadline_ms = std::atof(argv[++i]);
    }
  }
  if (args.base.quick) {
    args.phase_s = std::min(args.phase_s, 2.0);
    args.recovery_window_s = 1.0;
    args.max_recovery_windows = 8;
  }
  return args;
}

/// The scripted failure timeline, in the scenario DSL so the bench also
/// exercises the parser. Episodes are stepped manually at phase boundaries
/// (start/duration fields are documentation here).
const char* kTimeline = R"(# fig26 chaos timeline (manually stepped)
at 0.0s for 4.0s device-loss device=1 name=dev1_down
at 0.0s for 4.0s latency-storm p=0.5 factor=8 name=pcie_storm
at 0.0s for 4.0s heap-squeeze p=0.6 name=heap_squeeze
)";

/// One measured phase of the run, flattened for the JSON gate.
struct PhaseResult {
  std::string name;
  double duration_s = 0;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t missed = 0;
  uint64_t failed = 0;
  double goodput_qps = 0;
  double p99_ms = 0;
  int brownout_level_end = 0;
  uint64_t watchdog_fires_cum = 0;
  uint64_t hedge_attempts_cum = 0;
  uint64_t hedge_successes_cum = 0;
};

std::string PhaseJson(const PhaseResult& p) {
  char buffer[640];
  std::snprintf(
      buffer, sizeof(buffer),
      "    {\"name\": \"%s\", \"duration_s\": %.2f, \"offered\": %llu, "
      "\"completed\": %llu, \"shed\": %llu, \"missed\": %llu, "
      "\"failed\": %llu, \"goodput_qps\": %.3f, \"p99_ms\": %.3f, "
      "\"brownout_level_end\": %d, \"watchdog_fires\": %llu, "
      "\"hedge_attempts\": %llu, \"hedge_successes\": %llu}",
      p.name.c_str(), p.duration_s, static_cast<unsigned long long>(p.offered),
      static_cast<unsigned long long>(p.completed),
      static_cast<unsigned long long>(p.shed),
      static_cast<unsigned long long>(p.missed),
      static_cast<unsigned long long>(p.failed), p.goodput_qps, p.p99_ms,
      p.brownout_level_end,
      static_cast<unsigned long long>(p.watchdog_fires_cum),
      static_cast<unsigned long long>(p.hedge_attempts_cum),
      static_cast<unsigned long long>(p.hedge_successes_cum));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const AvailArgs args = ParseAvailArgs(argc, argv);
  const double sf = args.base.quick ? 0.2 : 0.5;

  Banner("fig26_availability",
         "availability under scripted chaos: " +
             std::to_string(args.sessions) +
             " closed-loop SSB users, 2 devices, timeline "
             "device-loss -> latency-storm -> heap-squeeze -> recovery");

  SsbGeneratorOptions gen;
  args.base.ApplySeed(gen);
  gen.scale_factor = sf;
  const DatabasePtr db = GenerateSsbDatabase(gen);
  const std::vector<NamedQuery> queries = SsbQueries();

  SystemConfig config = PaperConfig(args.base.time_scale);
  config.device_count = 2;
  EngineContext ctx(config, db);

  ServerOptions server_options;
  server_options.admission.max_concurrency = 16;
  server_options.admission.initial_concurrency = 8;
  Server server(&ctx, server_options);

  // Chaos timeline + hooks mirroring device loss into the placement layer,
  // exactly what an operator's device-loss runbook would do.
  ChaosScenario scenario = ChaosScenario::Parse(kTimeline).value();
  ScenarioOrchestrator::Hooks hooks;
  hooks.on_device_lost = [&](int device) {
    ctx.sharding().MarkDeviceLost(device);
    ctx.sharding().RebalanceAway(device, /*source_reachable=*/false);
  };
  hooks.on_device_restored = [&](int device) {
    ctx.sharding().MarkDeviceRestored(device);
  };
  std::vector<FaultInjector*> injectors;
  for (int d = 0; d < ctx.device_count(); ++d) {
    injectors.push_back(&ctx.simulator().fault_injector(d));
  }
  ScenarioOrchestrator chaos(scenario, injectors, &ctx.telemetry().registry(),
                             &ctx.flight_recorder(), hooks);

  // Warm cost models + data placement so the baseline phase measures a
  // trained engine (same protocol as the other serving benches).
  {
    SessionPtr warm = server.OpenSession("warmup");
    for (const NamedQuery& query : queries) {
      warm->Execute(query.builder(*db).value());
    }
    server.runner().RefreshDataPlacement();
    ctx.ResetRunStats();
  }

  TenantTraffic tenant;
  tenant.name = "users";
  tenant.mix = queries;
  tenant.deadline_ms = args.deadline_ms;
  tenant.sessions = args.sessions;
  tenant.think_time_ms = args.think_time_ms;

  TrafficOptions traffic;
  traffic.mode = TrafficOptions::Mode::kClosedLoop;
  traffic.duration_s = args.phase_s;
  traffic.seed = args.base.seed != 0 ? args.base.seed : 42;

  std::vector<PhaseResult> phases;
  auto run_phase = [&](const std::string& name, double duration_s,
                       int episode) {
    traffic.duration_s = duration_s;
    if (episode >= 0) chaos.ApplyEpisode(static_cast<size_t>(episode));
    const TrafficResult result = RunTraffic(server, {tenant}, traffic);
    if (episode >= 0) chaos.EndEpisode(static_cast<size_t>(episode));
    PhaseResult phase;
    phase.name = name;
    phase.duration_s = duration_s;
    phase.offered = result.offered;
    phase.completed = result.completed;
    phase.shed = result.shed;
    phase.missed = result.missed;
    phase.failed = result.failed;
    phase.goodput_qps = result.goodput_qps;
    for (const TenantTrafficResult& tr : result.tenants) {
      phase.p99_ms = std::max(phase.p99_ms, tr.p99_ms);
    }
    phase.brownout_level_end = ctx.brownout().level_int();
    phase.watchdog_fires_cum = ctx.watchdog().fires();
    phase.hedge_attempts_cum = server.hedge_attempts();
    phase.hedge_successes_cum = server.hedge_successes();
    phases.push_back(phase);
    PrintCell(phase.name);
    PrintCell(phase.offered);
    PrintCell(phase.goodput_qps);
    PrintCell(phase.p99_ms);
    PrintCell(static_cast<uint64_t>(phase.shed + phase.missed + phase.failed));
    PrintCell("L" + std::to_string(phase.brownout_level_end));
    PrintCell(phase.hedge_attempts_cum);
    PrintCell(phase.watchdog_fires_cum);
    EndRow();
    return phase;
  };

  PrintHeader({"phase", "offered", "goodput[qps]", "p99[ms]", "not_served",
               "brownout", "hedges", "wd_fires"});

  const PhaseResult baseline = run_phase("baseline", args.phase_s, -1);
  run_phase("device_loss", args.phase_s, 0);
  run_phase("latency_storm", args.phase_s, 1);
  run_phase("heap_squeeze", args.phase_s, 2);

  // Recovery: probe in short windows until the ladder is back at L0 and the
  // p99 is comparable to the pre-episode baseline, or the window budget
  // runs out. The placement job re-shards the restored device first, as the
  // restore runbook would.
  server.runner().RefreshDataPlacement();
  bool recovered = false;
  double recovery_time_s = 0;
  for (int window = 0; window < args.max_recovery_windows && !recovered;
       ++window) {
    const PhaseResult probe = run_phase(
        "recovery_" + std::to_string(window + 1), args.recovery_window_s, -1);
    recovery_time_s += args.recovery_window_s;
    const bool p99_ok =
        baseline.p99_ms <= 0 ||
        probe.p99_ms <= args.recovery_p99_factor * baseline.p99_ms;
    recovered = probe.brownout_level_end == 0 && p99_ok &&
                probe.completed > 0;
  }

  // Stranded-work audit: every future the closed loop issued has resolved
  // by construction; beyond that, nothing may still be under watch and the
  // device heaps must be fully released.
  const size_t stranded = ctx.watchdog().active();
  size_t heap_used = 0;
  for (int d = 0; d < ctx.device_count(); ++d) {
    heap_used += ctx.simulator().device_heap(d).used();
  }
  const int final_level = ctx.brownout().level_int();

  std::printf(
      "# recovered=%s recovery_time_s=%.1f stranded=%zu heap_used=%zu "
      "final_level=L%d brownout_transitions=%llu\n",
      recovered ? "yes" : "no", recovery_time_s, stranded, heap_used,
      final_level,
      static_cast<unsigned long long>(ctx.brownout().transitions()));

  std::string json = "{\n  \"bench\": \"fig26_availability\",\n";
  json += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    json += PhaseJson(phases[i]);
    json += i + 1 < phases.size() ? ",\n" : "\n";
  }
  json += "  ],\n  \"summary\": {\n";
  char summary[512];
  std::snprintf(
      summary, sizeof(summary),
      "    \"recovered\": %s,\n    \"recovery_time_s\": %.2f,\n"
      "    \"stranded_queries\": %zu,\n    \"heap_used_after_drain\": %zu,\n"
      "    \"final_brownout_level\": %d,\n    \"brownout_transitions\": "
      "%llu,\n    \"watchdog_fires\": %llu,\n    \"hedge_attempts\": %llu,\n"
      "    \"hedge_successes\": %llu\n",
      recovered ? "true" : "false", recovery_time_s, stranded, heap_used,
      final_level, static_cast<unsigned long long>(ctx.brownout().transitions()),
      static_cast<unsigned long long>(ctx.watchdog().fires()),
      static_cast<unsigned long long>(server.hedge_attempts()),
      static_cast<unsigned long long>(server.hedge_successes()));
  json += summary;
  json += "  }\n}\n";
  return WriteJsonArtifact(args.base.json_out, json) ? 0 : 1;
}
