#include "engine/scan_sets.h"

#include <algorithm>

namespace hetdb {

void ScanSetCounts::Record(const ScanNode& scan) {
  std::vector<std::string> keys;
  keys.reserve(scan.base_columns().size());
  for (const auto& [key, column] : scan.base_columns()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counts_.find(keys);
  if (it != counts_.end()) {
    ++it->second;
    return;
  }
  if (counts_.size() >= kCapacity) {
    auto victim = std::min_element(
        counts_.begin(), counts_.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    counts_.erase(victim);
  }
  counts_.emplace(std::move(keys), 1);
}

std::vector<ScanSetCount> ScanSetCounts::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ScanSetCount> sets;
  sets.reserve(counts_.size());
  for (const auto& [keys, executions] : counts_) {
    sets.push_back(ScanSetCount{keys, executions});
  }
  return sets;
}

}  // namespace hetdb
