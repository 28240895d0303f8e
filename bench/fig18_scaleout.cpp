// Scale-out companion to Figure 18(a): the 16-user SSB workload (fixed total
// work) on a simulated machine with 1, 2, 4, and 8 co-processors. Each
// device brings its own heap, data cache, PCIe link, and kernel engine; the
// sharding policy spreads column homes and operator placements across them,
// so GPU-Only — which collapses under heap contention on one device —
// scales out instead of thrashing.
//
//   ./build/bench/fig18_scaleout                    # 1/2/4/8 devices
//   ./build/bench/fig18_scaleout --quick            # 1/2 devices, SF 5
//   ./build/bench/fig18_scaleout --devices 1,4      # explicit sweep
//   ./build/bench/fig18_scaleout --json out.json    # machine-readable

#include <cstring>

#include "bench/bench_util.h"

using namespace hetdb;
using namespace hetdb::bench;

namespace {

std::vector<int> ParseDeviceList(const std::string& spec) {
  std::vector<int> devices;
  size_t start = 0;
  while (start < spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const int n = std::atoi(spec.substr(start, comma - start).c_str());
    if (n > 0) devices.push_back(n);
    start = comma + 1;
  }
  return devices;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  std::vector<int> devices = args.quick ? std::vector<int>{1, 2}
                                        : std::vector<int>{1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      const std::vector<int> parsed = ParseDeviceList(argv[++i]);
      if (!parsed.empty()) devices = parsed;
    }
  }

  const double sf = args.quick ? 5 : 10;
  const int reps = args.quick ? 2 : 4;
  const int users = 16;

  Banner("Figure 18 scale-out",
         "16-user SSB GPU-Only workload time vs device count (SF " +
             std::to_string(static_cast<int>(sf)) + ")");

  SsbGeneratorOptions gen;
  args.ApplySeed(gen);
  gen.scale_factor = sf;
  DatabasePtr db = GenerateSsbDatabase(gen);

  PrintHeader({"devices", "gpu_only[ms]", "speedup", "aborts", "failed",
               "gpu_ops", "h2d[MiB]"});

  std::string json =
      "{\n  \"bench\": \"fig18_scaleout\",\n  \"users\": " +
      std::to_string(users) + ",\n  \"points\": [\n";
  double base_millis = 0;
  bool first_point = true;
  for (const int device_count : devices) {
    SystemConfig config = PaperConfig(args.time_scale);
    config.device_count = device_count;

    WorkloadRunOptions options;
    options.repetitions = reps;
    options.num_users = users;
    options.warmup_repetitions = 1;
    // Warm-up leaves each query home's demand-cached working set in place —
    // that *is* the sharded steady state under query-home placement. The
    // placement-job refresh would re-shard to pure hash affinity and make
    // the first measured repetition re-pay every cross-home load.
    options.refresh_data_placement = false;
    args.ApplySessionKnobs(options);

    const WorkloadRunResult result =
        RunPoint(config, db, Strategy::kGpuOnly, SsbQueries(), options);
    if (base_millis == 0) base_millis = result.wall_millis;
    const double speedup =
        result.wall_millis > 0 ? base_millis / result.wall_millis : 0;

    PrintCell(static_cast<uint64_t>(device_count));
    PrintCell(result.wall_millis);
    PrintCell(speedup);
    PrintCell(result.gpu_aborts);
    PrintCell(result.failed_queries);
    PrintCell(result.gpu_operators);
    PrintCell(static_cast<double>(result.h2d_bytes) / (1 << 20));
    EndRow();

    if (!first_point) json += ",\n";
    first_point = false;
    json += "    {\"devices\": " + std::to_string(device_count) +
            ", \"users\": " + std::to_string(users) +
            ", \"result\": {" + RunResultJsonFields(result) +
            ", \"speedup\": " + std::to_string(speedup) + "}}";
  }
  json += "\n  ]\n}\n";
  return WriteJsonArtifact(args.json_out, json) ? 0 : 1;
}
