#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

size_t CountAbove(const std::vector<double>& samples, double value) {
  return static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [value](double s) { return s > value; }));
}

int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t covered_to = INT64_MIN;
  for (const auto& [begin, end] : intervals) {
    const int64_t from = std::max(begin, covered_to);
    if (end > from) {
      total += end - from;
      covered_to = end;
    }
  }
  return total;
}

}  // namespace perfbench
