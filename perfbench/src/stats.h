#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the samples at or below it. `p` in (0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Number of samples strictly greater than `value` (how many a reported
/// percentile leaves beyond it).
size_t CountAbove(const std::vector<double>& samples, double value);

/// Total length covered by the union of half-open [begin, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
