// Sample statistics for the benchmark's host-time measurements.
//
// Host time on a shared machine is only ever inflated by interference, and
// by a lot: on the reference 4-vCPU host the median pass of one run drifts
// by +-15% while its 10th percentile holds within +-2%. So every host-time
// figure is taken per pass (or per window of an open-loop run), and a run
// reports the 10th percentile over them: the undisturbed cost.
#pragma once

#include <algorithm>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `v` (copied, so callers keep their order).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The figure a run reports for a per-pass host time.
inline double undisturbed(const std::vector<double>& per_pass) { return quantile(per_pass, 0.1); }

}  // namespace perfbench
