#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "sim/simulator.h"

namespace hetdb {
namespace {

SystemConfig FastConfig() {
  SystemConfig config;
  config.simulate_time = false;  // bookkeeping only, no sleeps
  return config;
}

TEST(DeviceAllocatorTest, AllocateAndRelease) {
  DeviceAllocator allocator(100);
  auto a = allocator.Allocate(60, "a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(allocator.used(), 60u);
  EXPECT_EQ(allocator.available(), 40u);
  {
    auto b = allocator.Allocate(40, "b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(allocator.used(), 100u);
    EXPECT_EQ(allocator.available(), 0u);
  }
  EXPECT_EQ(allocator.used(), 60u);  // b released by RAII
  a->Release();
  EXPECT_EQ(allocator.used(), 0u);
}

TEST(DeviceAllocatorTest, FailsWhenExhausted) {
  DeviceAllocator allocator(100);
  auto a = allocator.Allocate(80, "a");
  ASSERT_TRUE(a.ok());
  auto b = allocator.Allocate(30, "b");
  EXPECT_FALSE(b.ok());
  EXPECT_TRUE(b.status().IsResourceExhausted());
  EXPECT_EQ(allocator.failed_allocations(), 1u);
  EXPECT_EQ(allocator.used(), 80u);  // failed allocation has no effect
}

TEST(DeviceAllocatorTest, OversizedRequestAlwaysFails) {
  DeviceAllocator allocator(100);
  EXPECT_FALSE(allocator.Allocate(101, "big").ok());
  EXPECT_TRUE(allocator.Allocate(100, "exact").ok());
}

TEST(DeviceAllocatorTest, TracksPeakUsage) {
  DeviceAllocator allocator(100);
  {
    auto a = allocator.Allocate(70, "a");
    ASSERT_TRUE(a.ok());
  }
  auto b = allocator.Allocate(10, "b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(allocator.peak_used(), 70u);
  allocator.ResetStats();
  EXPECT_EQ(allocator.peak_used(), 10u);
  EXPECT_EQ(allocator.failed_allocations(), 0u);
}

TEST(DeviceAllocatorTest, MoveTransfersOwnership) {
  DeviceAllocator allocator(100);
  auto a = allocator.Allocate(50, "a");
  ASSERT_TRUE(a.ok());
  DeviceAllocation moved = std::move(a).value();
  EXPECT_EQ(allocator.used(), 50u);
  DeviceAllocation second = std::move(moved);
  EXPECT_EQ(allocator.used(), 50u);
  second.Release();
  EXPECT_EQ(allocator.used(), 0u);
}

TEST(DeviceAllocatorTest, FailureInjection) {
  FaultInjector injector;
  DeviceAllocator allocator(1000, &injector);
  FaultSchedule schedule = FaultSchedule::Always(FaultKind::kHeapExhausted);
  schedule.min_bytes = 11;  // only allocations of more than 10 bytes fault
  injector.SetSchedule(FaultSite::kDeviceAlloc, schedule);
  EXPECT_TRUE(allocator.Allocate(10, "small").ok());
  Result<DeviceAllocation> large = allocator.Allocate(11, "large");
  ASSERT_FALSE(large.ok());
  EXPECT_TRUE(large.status().IsResourceExhausted());
  EXPECT_EQ(allocator.failed_allocations(), 1u);
  EXPECT_EQ(injector.faults_injected(FaultSite::kDeviceAlloc,
                                     FaultKind::kHeapExhausted),
            1u);
  injector.ClearAll();
  EXPECT_TRUE(allocator.Allocate(11, "large again").ok());
}

TEST(DeviceAllocatorTest, ConcurrentAllocationsNeverOvercommit) {
  DeviceAllocator allocator(1000);
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto a = allocator.Allocate(100, "x");
        if (a.ok()) {
          successes.fetch_add(1);
          EXPECT_LE(allocator.used(), 1000u);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(allocator.used(), 0u);
  EXPECT_GT(successes.load(), 0);
}

TEST(SimClockTest, AccumulatesChargedTime) {
  SimClock clock(/*simulate=*/false, 1.0);
  clock.Charge(100);
  clock.Charge(250);
  clock.Charge(-5);  // ignored
  EXPECT_EQ(clock.total_charged_micros(), 350);
}

TEST(SimClockTest, SimulationSleepsApproximatelyScaledTime) {
  SimClock clock(/*simulate=*/true, 0.5);
  const auto start = std::chrono::steady_clock::now();
  clock.Charge(10000);  // 10ms modeled, 5ms scaled
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed_ms, 4.5);
  EXPECT_LT(elapsed_ms, 50.0);  // generous upper bound for CI noise
}

TEST(PcieBusTest, AccountsBytesAndTimePerDirection) {
  SimClock clock(false, 1.0);
  PcieBus bus(/*bandwidth_mbps=*/100, /*sync_efficiency=*/0.5, &clock);
  bus.Transfer(1000, TransferDirection::kHostToDevice);
  bus.Transfer(500, TransferDirection::kDeviceToHost);
  EXPECT_EQ(bus.transferred_bytes(TransferDirection::kHostToDevice), 1000u);
  EXPECT_EQ(bus.transferred_bytes(TransferDirection::kDeviceToHost), 500u);
  // 1000 bytes at 100 MB/s == 10 us.
  EXPECT_EQ(bus.transfer_micros(TransferDirection::kHostToDevice), 10);
  EXPECT_EQ(bus.transfer_micros(TransferDirection::kDeviceToHost), 5);
  EXPECT_EQ(bus.transfer_count(TransferDirection::kHostToDevice), 1u);
  bus.ResetStats();
  EXPECT_EQ(bus.transferred_bytes(TransferDirection::kHostToDevice), 0u);
}

TEST(PcieBusTest, SynchronousTransfersArePenalized) {
  SimClock clock(false, 1.0);
  PcieBus bus(100, 0.5, &clock);
  bus.Transfer(1000, TransferDirection::kHostToDevice, /*asynchronous=*/false);
  EXPECT_EQ(bus.transfer_micros(TransferDirection::kHostToDevice), 20);
}

TEST(PcieBusTest, ZeroByteTransferIsFree) {
  SimClock clock(false, 1.0);
  PcieBus bus(100, 0.5, &clock);
  bus.Transfer(0, TransferDirection::kHostToDevice);
  EXPECT_EQ(bus.transfer_count(TransferDirection::kHostToDevice), 0u);
}

TEST(SimulatorTest, EstimatesFollowThroughputTable) {
  SystemConfig config = FastConfig();
  config.cpu_throughput.scan_mbps = 100;
  config.gpu_throughput.scan_mbps = 1000;
  config.pcie_mbps = 50;
  Simulator sim(config);
  EXPECT_DOUBLE_EQ(
      sim.EstimateComputeMicros(ProcessorKind::kCpu, OpClass::kScan, 1000),
      10.0);
  EXPECT_DOUBLE_EQ(
      sim.EstimateComputeMicros(ProcessorKind::kGpu, OpClass::kScan, 1000),
      1.0);
  EXPECT_DOUBLE_EQ(sim.EstimateTransferMicros(1000), 20.0);
}

TEST(SimulatorTest, AllOpClassesHaveThroughputs) {
  Simulator sim(FastConfig());
  for (OpClass op : {OpClass::kScan, OpClass::kJoin, OpClass::kAggregate,
                     OpClass::kSort, OpClass::kProject, OpClass::kMaterialize}) {
    EXPECT_GT(sim.EstimateComputeMicros(ProcessorKind::kCpu, op, 1 << 20), 0);
    EXPECT_GT(sim.EstimateComputeMicros(ProcessorKind::kGpu, op, 1 << 20), 0);
    // The device is modeled faster than the CPU for every operator class.
    EXPECT_LT(sim.EstimateComputeMicros(ProcessorKind::kGpu, op, 1 << 20),
              sim.EstimateComputeMicros(ProcessorKind::kCpu, op, 1 << 20));
  }
}

TEST(SimulatorTest, HeapCapacityFollowsConfig) {
  SystemConfig config = FastConfig();
  config.device_memory_bytes = 1000;
  config.device_cache_bytes = 400;
  Simulator sim(config);
  EXPECT_EQ(sim.device_heap().capacity(), 600u);
}

Status NoWork() { return Status::OK(); }

TEST(SimulatorTest, RunKernelAccumulatesClock) {
  SystemConfig config = FastConfig();
  config.cpu_throughput.scan_mbps = 100;
  config.cpu_workers = 1;  // disable intra-operator parallelism for exactness
  Simulator sim(config);
  Result<Simulator::KernelWindow> cpu =
      sim.RunKernel(ProcessorKind::kCpu, OpClass::kScan, 1000, 0, NoWork);
  ASSERT_TRUE(cpu.ok());
  EXPECT_DOUBLE_EQ(cpu->modeled_micros, 10);
  EXPECT_EQ(sim.clock().total_charged_micros(), 10);
  ASSERT_TRUE(
      sim.RunKernel(ProcessorKind::kGpu, OpClass::kScan, 1 << 20, 0, NoWork)
          .ok());
  EXPECT_GT(sim.clock().total_charged_micros(), 10);
}

TEST(SimulatorTest, RunKernelStretchesAThrottledKernel) {
  SystemConfig config = FastConfig();
  config.gpu_throughput.join_mbps = 100;
  Simulator sim(config);
  Result<Simulator::KernelWindow> window = sim.RunKernel(
      ProcessorKind::kGpu, OpClass::kJoin, 1000, 0, NoWork, 8.0);
  ASSERT_TRUE(window.ok());
  EXPECT_DOUBLE_EQ(window->modeled_micros, 80);
  EXPECT_EQ(sim.clock().total_charged_micros(), 80);
}

TEST(SimulatorTest, RunKernelFailedComputeChargesNothing) {
  Simulator sim(FastConfig());
  Result<Simulator::KernelWindow> window = sim.RunKernel(
      ProcessorKind::kGpu, OpClass::kJoin, 1 << 20, 0,
      [] { return Status::Internal("kernel bug"); });
  EXPECT_FALSE(window.ok());
  EXPECT_EQ(sim.clock().total_charged_micros(), 0);
  // The device lock was released: the next kernel runs.
  EXPECT_TRUE(
      sim.RunKernel(ProcessorKind::kGpu, OpClass::kJoin, 1 << 20, 0, NoWork)
          .ok());
}

// The reported-work contract: RunKernel charges the work `compute` reports
// once it has run, not a size fixed before the kernel starts.
SystemConfig WorkConfig() {
  SystemConfig config = FastConfig();
  config.cpu_throughput.scan_mbps = 100;
  config.cpu_throughput.join_mbps = 50;
  config.gpu_throughput.scan_mbps = 1000;
  config.gpu_throughput.join_mbps = 500;
  return config;
}

// Two stages, 40,000 bytes at the scan rate then 1,000 bytes at the join
// rate: 400 + 20 single-core micros on the CPU, 40 + 2 on the device.
Result<KernelWork> FilterThenJoin() {
  return KernelWork{{{OpClass::kScan, 40'000}, {OpClass::kJoin, 1'000}}};
}

TEST(RunKernelWorkTest, ChargesTheWorkReportedAfterCompute) {
  Simulator sim(WorkConfig());
  const std::vector<int> values = {5, 50, 7, 90, 60};
  Result<Simulator::KernelWindow> window = sim.RunKernel(
      ProcessorKind::kGpu, 0, [&]() -> Result<KernelWork> {
        // The work depends on what the kernel found: 1,000 bytes per value
        // that passes its filter.
        size_t passed = 0;
        for (int value : values) passed += value > 40 ? 1 : 0;
        return KernelWork{
            {{OpClass::kScan, 40'000}, {OpClass::kJoin, 1'000 * passed}}};
      });
  ASSERT_TRUE(window.ok());
  EXPECT_DOUBLE_EQ(window->modeled_micros, 40 + 3 * 2);
  EXPECT_EQ(sim.clock().total_charged_micros(), 46);
}

TEST(RunKernelWorkTest, CpuWorkIsDividedByTheSlotsTaken) {
  for (int workers : {1, 4}) {
    SystemConfig config = WorkConfig();
    config.cpu_workers = workers;
    Simulator sim(config);
    // Alone on the host, the kernel takes every slot.
    Result<Simulator::KernelWindow> window =
        sim.RunKernel(ProcessorKind::kCpu, 0, FilterThenJoin);
    ASSERT_TRUE(window.ok());
    EXPECT_DOUBLE_EQ(window->modeled_micros, 420.0 / workers) << workers;
    EXPECT_EQ(sim.clock().total_charged_micros(), 420 / workers);
  }
}

TEST(RunKernelWorkTest, LatencyFactorStretchesTheReportedWork) {
  SystemConfig config = WorkConfig();
  config.cpu_workers = 4;
  Simulator sim(config);
  Result<Simulator::KernelWindow> gpu =
      sim.RunKernel(ProcessorKind::kGpu, 0, FilterThenJoin, 3.0);
  ASSERT_TRUE(gpu.ok());
  EXPECT_DOUBLE_EQ(gpu->modeled_micros, 42 * 3.0);
  Result<Simulator::KernelWindow> cpu =
      sim.RunKernel(ProcessorKind::kCpu, 0, FilterThenJoin, 3.0);
  ASSERT_TRUE(cpu.ok());
  EXPECT_DOUBLE_EQ(cpu->modeled_micros, 420 * 3.0 / 4);
  EXPECT_EQ(sim.clock().total_charged_micros(), 126 + 315);
}

TEST(RunKernelWorkTest, FailedComputeChargesNothingAndReleases) {
  // On the timed clock the compute runs under the lock and slots: a failure
  // must still release both.
  SystemConfig config = WorkConfig();
  config.simulate_time = true;
  config.time_scale = 1.0;
  config.cpu_workers = 1;
  Simulator sim(config);
  for (ProcessorKind processor : {ProcessorKind::kGpu, ProcessorKind::kCpu}) {
    Result<Simulator::KernelWindow> failed = sim.RunKernel(
        processor, 0,
        []() -> Result<KernelWork> { return Status::Internal("kernel bug"); });
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(sim.clock().total_charged_micros(), 0);
  }
  for (ProcessorKind processor : {ProcessorKind::kGpu, ProcessorKind::kCpu}) {
    EXPECT_TRUE(sim.RunKernel(processor, 0, [] {
                     return Result<KernelWork>(
                         KernelWork{{{OpClass::kJoin, 1'000}}});
                   }).ok());
  }
  // 1,000 bytes at the join rate on each processor: 2 + 20 micros.
  EXPECT_EQ(sim.clock().total_charged_micros(), 22);
}

TEST(RunKernelWorkTest, HostClockComputeRunsOutsideTheLockAndSlots) {
  // time_scale 0: the clock is simulated but no modeled time passes, so the
  // compute is plain host work. Two kernels on one device, or on a single
  // CPU slot, are inside their computes at the same time.
  SystemConfig config = WorkConfig();
  config.simulate_time = true;
  config.time_scale = 0;
  config.cpu_workers = 1;
  for (ProcessorKind processor : {ProcessorKind::kGpu, ProcessorKind::kCpu}) {
    SCOPED_TRACE(ProcessorKindToString(processor));
    Simulator sim(config);
    std::mutex mutex;
    std::condition_variable cv;
    int inside = 0;
    int overlapped = 0;
    auto compute = [&]() -> Result<KernelWork> {
      std::unique_lock<std::mutex> lock(mutex);
      ++inside;
      cv.notify_all();
      // Bounded: a compute held under the lock or slot times out here.
      if (cv.wait_for(lock, std::chrono::seconds(5),
                      [&] { return inside >= 2; })) {
        ++overlapped;
      }
      return KernelWork{{{OpClass::kJoin, 1'000}}};
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&] {
        EXPECT_TRUE(sim.RunKernel(processor, 0, compute).ok());
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(overlapped, 2);
    // 1,000 bytes at the join rate, charged in full for each kernel.
    EXPECT_EQ(sim.clock().total_charged_micros(),
              processor == ProcessorKind::kGpu ? 2 * 2 : 2 * 20);
  }
}

// Kernel-window semantics on the real clock. A GPU join at 100 MB/s over
// `bytes` is modeled as bytes / 100 microseconds; time_scale 1 makes that
// the wall time too. Bounds are generous: sleeps overshoot on a loaded host.
SystemConfig WindowConfig() {
  SystemConfig config;
  config.simulate_time = true;
  config.time_scale = 1.0;
  config.gpu_throughput.join_mbps = 100;
  config.cpu_throughput.join_mbps = 100;
  config.cpu_workers = 1;
  return config;
}

constexpr size_t kWindowBytes = 6'000'000;  // 60 ms modeled

std::function<Status()> HostWork(int millis) {
  return [millis] {
    std::this_thread::sleep_for(std::chrono::milliseconds(millis));
    return Status::OK();
  };
}

TEST(KernelWindowTest, ShortHostWorkHidesInsideTheModeledWindow) {
  for (ProcessorKind processor : {ProcessorKind::kGpu, ProcessorKind::kCpu}) {
    Simulator sim(WindowConfig());
    Stopwatch watch;
    Result<Simulator::KernelWindow> window = sim.RunKernel(
        processor, OpClass::kJoin, kWindowBytes, 0, HostWork(30));
    const double wall_ms = watch.ElapsedMillis();
    ASSERT_TRUE(window.ok());
    EXPECT_DOUBLE_EQ(window->modeled_micros, 60'000);
    EXPECT_GE(window->host_micros, 30'000);
    // max(30, 60) = 60 ms, not the 90 ms sum.
    EXPECT_GE(wall_ms, 59.0) << ProcessorKindToString(processor);
    EXPECT_LT(wall_ms, 80.0) << ProcessorKindToString(processor);
  }
}

TEST(KernelWindowTest, LongHostWorkIsNotPaddedByTheModeledWindow) {
  Simulator sim(WindowConfig());
  Stopwatch watch;
  Result<Simulator::KernelWindow> window = sim.RunKernel(
      ProcessorKind::kGpu, OpClass::kJoin, kWindowBytes / 2, 0, HostWork(60));
  const double wall_ms = watch.ElapsedMillis();
  ASSERT_TRUE(window.ok());
  EXPECT_DOUBLE_EQ(window->modeled_micros, 30'000);
  // max(60, 30) = 60 ms, not the 90 ms sum.
  EXPECT_GE(wall_ms, 59.0);
  EXPECT_LT(wall_ms, 80.0);
}

TEST(KernelWindowTest, KernelsOnOneDeviceSerialize) {
  SystemConfig config = WindowConfig();
  config.device_count = 2;
  Simulator sim(config);
  // Two kernels on one device take at least both windows; the same two on
  // different devices overlap.
  auto run_pair = [&sim](int second_device) {
    Stopwatch watch;
    std::vector<std::thread> threads;
    for (int device : {0, second_device}) {
      threads.emplace_back([&sim, device] {
        ASSERT_TRUE(sim.RunKernel(ProcessorKind::kGpu, OpClass::kJoin,
                                  kWindowBytes, device, HostWork(10))
                        .ok());
      });
    }
    for (auto& thread : threads) thread.join();
    return watch.ElapsedMillis();
  };
  EXPECT_GE(run_pair(/*second_device=*/0), 119.0);
  EXPECT_LT(run_pair(/*second_device=*/1), 100.0);
}

TEST(KernelWindowTest, HostClockKernelsOnOneDeviceOverlap) {
  // Without simulated time the window has no length: the real compute is
  // plain host work and does not queue on the device lock.
  SystemConfig config = WindowConfig();
  config.simulate_time = false;
  Simulator sim(config);
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&sim] {
      ASSERT_TRUE(sim.RunKernel(ProcessorKind::kGpu, OpClass::kJoin,
                                kWindowBytes, 0, HostWork(40))
                      .ok());
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LT(watch.ElapsedMillis(), 70.0);
  EXPECT_EQ(sim.clock().total_charged_micros(), 120'000);
}

TEST(KernelWindowTest, ClockCountsTheFullModeledTime) {
  Simulator sim(WindowConfig());
  ASSERT_TRUE(sim.RunKernel(ProcessorKind::kGpu, OpClass::kJoin,
                            kWindowBytes / 6, 0, HostWork(20))
                  .ok());
  ASSERT_TRUE(sim.RunKernel(ProcessorKind::kCpu, OpClass::kJoin,
                            kWindowBytes / 6, 0, HostWork(5))
                  .ok());
  // Host work outlasted one window and hid inside the other; the clock
  // still counts both modeled durations in full.
  EXPECT_EQ(sim.clock().total_charged_micros(), 20'000);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Semaphore sem(2);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        sem.Acquire();
        const int now = inside.fetch_add(1) + 1;
        int expected = max_inside.load();
        while (now > expected &&
               !max_inside.compare_exchange_weak(expected, now)) {
        }
        inside.fetch_sub(1);
        sem.Release();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(max_inside.load(), 2);
}

}  // namespace
}  // namespace hetdb
