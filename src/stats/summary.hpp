// Run-level statistics helpers: median, mean and correlation of scalar
// samples.
#ifndef SRC_STATS_SUMMARY_HPP_
#define SRC_STATS_SUMMARY_HPP_

#include <vector>

namespace lockin {

// Median of a sample set (copies; callers keep their data).
double Median(std::vector<double> values);

// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

// Pearson correlation coefficient of two equally sized series. Used by the
// Figure 12 reproduction to quantify the throughput<->TPP correlation.
double PearsonCorrelation(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace lockin

#endif  // SRC_STATS_SUMMARY_HPP_
