// Small statistics toolkit: running moments, streaming quantiles, percentiles,
// ECDF, Pearson correlation, and mean aggregations. Used by the trace analyzer
// (MTTF, correlation heatmaps), the selection policies (variance of running
// time), the scheduler's straggler deadlines (streaming P50 of task
// service times), and the benchmark harnesses (reporting).

#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace flint {

// Welford-style running mean/variance.
class RunningStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Streaming quantile estimator (Jain & Chlamtac's P² algorithm): tracks one
// quantile in O(1) memory without storing the sample. Exact until five
// observations have arrived (it interpolates over the stored sorted five),
// then maintains five markers whose heights approximate the quantile. Used by
// the DAG scheduler to derive per-task speculation deadlines from the running
// P50 of attempt service times within a stage.
class P2Quantile {
 public:
  // `q` in (0, 1), e.g. 0.5 for the median, 0.95 for the tail.
  explicit P2Quantile(double q);

  void Add(double x);
  size_t count() const { return count_; }
  // Current estimate; 0 before the first observation.
  double value() const;

 private:
  double Parabolic(int i, double d) const;
  double Linear(int i, double d) const;

  double q_;
  size_t count_ = 0;
  double heights_[5] = {};   // marker heights (ascending once initialized)
  double positions_[5] = {}; // actual marker positions (1-based)
  double desired_[5] = {};   // desired marker positions
  double increments_[5] = {};
};

// Percentile of a sample (linear interpolation between order statistics).
// `p` in [0, 100]. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// Empirical CDF evaluated at sorted breakpoints: returns (x, F(x)) pairs for
// each distinct sample value. Used to reproduce Fig 2's availability ECDFs.
std::vector<std::pair<double, double>> Ecdf(std::vector<double> samples);

// Pearson correlation coefficient of two equal-length series. Returns 0 if
// either series has zero variance or the series are shorter than 2.
double PearsonCorrelation(const std::vector<double>& a, const std::vector<double>& b);

// Harmonic-mean-style MTTF aggregation for an m-market mix (paper Eq. 3):
// MTTF = 1 / (1/MTTF_1 + ... + 1/MTTF_m). Infinite inputs contribute 0 rate.
double AggregateMttf(const std::vector<double>& mttfs);

double Mean(const std::vector<double>& xs);
double SampleVariance(const std::vector<double>& xs);

}  // namespace flint

#endif  // SRC_COMMON_STATS_H_
