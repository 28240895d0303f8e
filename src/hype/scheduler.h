#ifndef HETDB_HYPE_SCHEDULER_H_
#define HETDB_HYPE_SCHEDULER_H_

#include <cstddef>

#include "hype/cost_model.h"
#include "hype/load_tracker.h"
#include "sim/simulator.h"

namespace hetdb {

/// Load-aware operator placement decision (HyPE's tactical optimizer).
///
/// Given an operator's cost class, input size, and how many of its input
/// bytes would have to cross the bus if it ran on the device, computes the
/// response-time-optimal processor:
///
///   cost(CPU) = est_kernel(CPU) + queued(CPU) + transfer(device-resident in)
///   cost(GPU) = est_kernel(GPU) + queued(GPU) + transfer(host-resident in)
///
/// `queued` is the LoadTracker's pending estimate: the operators still
/// waiting in that processor's ready queue. An operator's estimate leaves it
/// when a worker picks the operator up, so operators already running do not
/// count.
///
/// Because run-time placement happens when all inputs are materialized,
/// `input_bytes` is exact — the paper's key argument for why chopping makes
/// cost models accurate (Section 5.2).
class HypeScheduler {
 public:
  HypeScheduler(CostModel* cost_model, LoadTracker* load_tracker,
                Simulator* simulator)
      : cost_model_(cost_model),
        load_tracker_(load_tracker),
        simulator_(simulator) {}

  HypeScheduler(const HypeScheduler&) = delete;
  HypeScheduler& operator=(const HypeScheduler&) = delete;

  /// Picks the processor with the lower estimated completion time.
  /// `bytes_to_transfer_if_gpu` — input bytes not already device-resident;
  /// `bytes_to_transfer_if_cpu` — device-resident intermediate inputs that a
  /// CPU placement would have to copy back over the bus.
  ProcessorKind ChooseProcessor(OpClass op_class, size_t input_bytes,
                                size_t bytes_to_transfer_if_gpu,
                                size_t bytes_to_transfer_if_cpu = 0) const {
    const double cpu_cost =
        cost_model_->EstimateMicros(ProcessorKind::kCpu, op_class,
                                    input_bytes) +
        load_tracker_->PendingMicros(ProcessorKind::kCpu) +
        simulator_->EstimateTransferMicros(bytes_to_transfer_if_cpu);
    const double gpu_cost =
        cost_model_->EstimateMicros(ProcessorKind::kGpu, op_class,
                                    input_bytes) +
        load_tracker_->PendingMicros(ProcessorKind::kGpu) +
        simulator_->EstimateTransferMicros(bytes_to_transfer_if_gpu);
    return gpu_cost < cpu_cost ? ProcessorKind::kGpu : ProcessorKind::kCpu;
  }

  CostModel* cost_model() const { return cost_model_; }
  LoadTracker* load_tracker() const { return load_tracker_; }

 private:
  CostModel* cost_model_;
  LoadTracker* load_tracker_;
  Simulator* simulator_;
};

}  // namespace hetdb

#endif  // HETDB_HYPE_SCHEDULER_H_
