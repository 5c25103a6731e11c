#ifndef CDI_STATS_INDEPENDENCE_H_
#define CDI_STATS_INDEPENDENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"

namespace cdi::stats {

/// Result of an (un)conditional independence test.
struct IndependenceResult {
  double statistic = 0.0;
  double p_value = 1.0;
  /// Effect-size proxy (|partial correlation| or Cramer's V).
  double strength = 0.0;
};

/// Chi-square test of independence between two discrete variables encoded
/// as small non-negative integer codes (-1 = missing, skipped pairwise).
Result<IndependenceResult> ChiSquareIndependence(
    const std::vector<int>& x, const std::vector<int>& y);

/// Plug-in discrete mutual information I(X; Y) in nats (missing codes
/// skipped pairwise).
double DiscreteMutualInformation(const std::vector<int>& x,
                                 const std::vector<int>& y);

/// Quantile-bins a numeric vector into `bins` integer codes (NaN -> -1):
/// a value's code is the number of Quantile() edges at b/bins it exceeds.
/// Used to compute mutual information of continuous attributes.
std::vector<int> QuantileBin(DoubleSpan x, int bins);

/// The same codes from a precomputed `order` = ValueOrder(x), for callers
/// that already sorted the column.
std::vector<int> QuantileBin(DoubleSpan x,
                             const std::vector<std::size_t>& order,
                             int bins);

}  // namespace cdi::stats

#endif  // CDI_STATS_INDEPENDENCE_H_
