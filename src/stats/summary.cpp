#include "src/stats/summary.hpp"

#include <algorithm>
#include <cmath>

namespace lockin {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  const double hi = values[mid];
  const double lo = *std::max_element(values.begin(), values.begin() + mid);
  return (lo + hi) / 2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) {
    return 0.0;
  }
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace lockin
