#ifndef HETDB_HYPE_LOAD_TRACKER_H_
#define HETDB_HYPE_LOAD_TRACKER_H_

#include <atomic>
#include <cstdint>

#include "sim/simulator.h"

namespace hetdb {

/// Tracks the estimated completion time of each processor's ready queue.
///
/// The paper's chopping executor "keeps track of the load on each processor
/// by estimating the completion time of each processor's ready queue"
/// (Section 5.2). Operators add their cost estimate when enqueued and remove
/// it when a worker picks them up, before they run, so the pending load
/// covers queued operators only, not running ones; the scheduler prefers
/// the processor whose queue drains first.
class LoadTracker {
 public:
  LoadTracker() = default;

  LoadTracker(const LoadTracker&) = delete;
  LoadTracker& operator=(const LoadTracker&) = delete;

  void AddPending(ProcessorKind processor, double estimated_micros) {
    pending_micros_[Index(processor)].fetch_add(
        static_cast<int64_t>(estimated_micros), std::memory_order_relaxed);
  }

  void RemovePending(ProcessorKind processor, double estimated_micros) {
    pending_micros_[Index(processor)].fetch_sub(
        static_cast<int64_t>(estimated_micros), std::memory_order_relaxed);
  }

  /// Estimated microseconds of the operators waiting in the processor's
  /// ready queue (operators already running are not counted).
  double PendingMicros(ProcessorKind processor) const {
    const int64_t value =
        pending_micros_[Index(processor)].load(std::memory_order_relaxed);
    return value > 0 ? static_cast<double>(value) : 0.0;
  }

  void Reset() {
    pending_micros_[0].store(0, std::memory_order_relaxed);
    pending_micros_[1].store(0, std::memory_order_relaxed);
  }

 private:
  static int Index(ProcessorKind processor) {
    return static_cast<int>(processor);
  }

  std::atomic<int64_t> pending_micros_[2] = {};
};

}  // namespace hetdb

#endif  // HETDB_HYPE_LOAD_TRACKER_H_
