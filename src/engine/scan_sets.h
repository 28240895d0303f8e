#ifndef HETDB_ENGINE_SCAN_SETS_H_
#define HETDB_ENGINE_SCAN_SETS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cache/data_cache.h"
#include "operators/plan_node.h"

namespace hetdb {

/// How much of the recorded scan work the cache content serves: scan
/// executions whose whole column set is cached, out of all recorded ones.
struct AccessCoverage {
  uint64_t covered = 0;  ///< executions of resident sets
  uint64_t total = 0;    ///< all recorded executions
  size_t sets_resident = 0;
  size_t sets = 0;

  double Share() const {
    return total == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(total);
  }
};

/// How often each scan column set executed in one engine: the input of the
/// placement job's working-set step (DataCache::RunPlacementJob). A set is
/// keyed by its sorted qualified column keys, so the table holds no column
/// alive. It is placement state, like the columns' lifetime access counts:
/// per-run stat resets keep it. When full, recording a new set first drops
/// the least-executed one, so ad-hoc queries cannot grow it without limit.
/// Counts never decay, which limits that bound under churn: once the table
/// is full, every new set starts at 1 and a set seen once is the next
/// victim, so a recurring set can be dropped before its second execution
/// while the sets of an earlier phase stay for good. Thread-safe.
class ScanSetCounts {
 public:
  static constexpr size_t kCapacity = 64;

  /// Counts one execution of `scan` (once per operator, not per attempt).
  void Record(const ScanNode& scan);

  /// Every recorded set with its count, in key order.
  std::vector<ScanSetCount> Snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::vector<std::string>, uint64_t> counts_;
};

}  // namespace hetdb

#endif  // HETDB_ENGINE_SCAN_SETS_H_
