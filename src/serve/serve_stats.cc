#include "serve/serve_stats.h"

#include <algorithm>
#include <cmath>

namespace metalora {
namespace serve {

double ServeStats::MeanBatchSize() const {
  return batches_executed > 0
             ? static_cast<double>(batched_rows) /
                   static_cast<double>(batches_executed)
             : 0.0;
}

double ServeStats::PercentileUs(const std::vector<double>& samples,
                                double pct) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t idx = static_cast<size_t>(std::llround(rank));
  return sorted[std::min(idx, sorted.size() - 1)];
}

double ServeStats::LatencyPercentileUs(double pct) const {
  return PercentileUs(latencies_us, pct);
}

}  // namespace serve
}  // namespace metalora
