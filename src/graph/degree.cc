#include "src/graph/degree.h"

#include <algorithm>

namespace dpkron {

std::vector<std::pair<uint32_t, uint64_t>> DegreeHistogramFromDegrees(
    const std::vector<uint32_t>& degrees) {
  uint32_t max_degree = 0;
  for (uint32_t d : degrees) max_degree = std::max(max_degree, d);
  std::vector<uint64_t> counts(size_t(max_degree) + 1, 0);
  for (uint32_t d : degrees) ++counts[d];
  std::vector<std::pair<uint32_t, uint64_t>> histogram;
  for (uint32_t d = 0; d < counts.size(); ++d) {
    if (counts[d] > 0) histogram.emplace_back(d, counts[d]);
  }
  return histogram;
}

double EdgesFromDegrees(const std::vector<double>& degrees) {
  double sum = 0.0;
  for (double d : degrees) sum += d;
  return sum / 2.0;
}

double HairpinsFromDegrees(const std::vector<double>& degrees) {
  double sum = 0.0;
  for (double d : degrees) sum += d * (d - 1.0);
  return sum / 2.0;
}

double TripinsFromDegrees(const std::vector<double>& degrees) {
  double sum = 0.0;
  for (double d : degrees) sum += d * (d - 1.0) * (d - 2.0);
  return sum / 6.0;
}

}  // namespace dpkron
