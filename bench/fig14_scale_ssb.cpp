// Figure 14(a): average SSB workload execution time (all 13 queries) as the
// database scale factor grows, for the six placement strategies of Section
// 6.2. Expected shape: GPU-Only falls behind once the working set exceeds
// the device cache (~SF 15 at the 24 MiB cache); Data-Driven Chopping is
// never worse than CPU-Only and fastest overall.
//
//   ./build/bench/fig14_scale_ssb --quick                  # SF 2, 5
//   ./build/bench/fig14_scale_ssb --quick --json out.json  # machine-readable
//
// scripts/check_bench.py out.json --dd-vs-cpu checks the paper's claim on
// the JSON artifact.

#include "bench/bench_util.h"

using namespace hetdb;
using namespace hetdb::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  const std::vector<double> scale_factors =
      args.quick ? std::vector<double>{2, 5}
                 : (args.full ? std::vector<double>{5, 10, 15, 20, 25, 30}
                              : std::vector<double>{5, 10, 20, 30});
  const std::vector<Strategy> strategies = {
      Strategy::kCpuOnly,      Strategy::kGpuOnly,
      Strategy::kCriticalPath, Strategy::kDataDriven,
      Strategy::kChopping,     Strategy::kDataDrivenChopping};

  Banner("Figure 14(a)",
         "SSB workload (Q1.1-Q4.3) execution time vs scale factor; device "
         "cache 24 MiB, heap 16 MiB");

  std::vector<std::string> header = {"sf"};
  for (Strategy strategy : strategies) {
    header.push_back(std::string(StrategyToString(strategy)) + "[ms]");
  }
  PrintHeader(header);

  std::string json = "{\n  \"bench\": \"fig14_scale_ssb\",\n  \"points\": [\n";
  bool first_point = true;
  for (double sf : scale_factors) {
    SsbGeneratorOptions gen;
    args.ApplySeed(gen);
    gen.scale_factor = sf;
    DatabasePtr db = GenerateSsbDatabase(gen);

    PrintCell(static_cast<uint64_t>(sf));
    for (Strategy strategy : strategies) {
      WorkloadRunOptions options;
      options.repetitions = 1;
      options.warmup_repetitions = 1;
      const WorkloadRunResult result =
          RunPoint(PaperConfig(args.time_scale), db, strategy, SsbQueries(),
                   options);
      PrintCell(result.wall_millis);

      if (!first_point) json += ",\n";
      first_point = false;
      json += "    {\"sf\": " + std::to_string(sf) + ", \"strategy\": \"" +
              StrategyToString(strategy) +
              "\", \"result\": {" + RunResultJsonFields(result) + "}}";
    }
    EndRow();
  }
  json += "\n  ]\n}\n";
  return WriteJsonArtifact(args.json_out, json) ? 0 : 1;
}
