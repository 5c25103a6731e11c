#ifndef CDI_STATS_DESCRIPTIVE_H_
#define CDI_STATS_DESCRIPTIVE_H_

#include <cstddef>
#include <vector>

#include "common/span.h"

namespace cdi::stats {

/// Descriptive statistics over numeric spans. Every function skips NaN
/// entries (the table layer encodes nulls as NaN), so callers can pass
/// Column::View() output directly — zero-copy for double columns — or any
/// std::vector<double> (which converts implicitly). Functions return NaN
/// when fewer valid values remain than the statistic needs.

double Mean(DoubleSpan x);

/// Unbiased (n-1) sample variance.
double Variance(DoubleSpan x);

double StdDev(DoubleSpan x);

double Min(DoubleSpan x);
double Max(DoubleSpan x);

double Median(DoubleSpan x);

/// Linear-interpolated quantile, q in [0, 1].
double Quantile(DoubleSpan x, double q);

/// Quantile() over values already NaN-free and sorted ascending.
double QuantileOfSorted(const std::vector<double>& sorted, double q);

/// Sample skewness (Fisher-Pearson, bias-unadjusted).
double Skewness(DoubleSpan x);

/// Excess kurtosis.
double ExcessKurtosis(DoubleSpan x);

/// Weighted mean; entries with NaN value or weight are skipped.
double WeightedMean(DoubleSpan x,
                    DoubleSpan w);

/// Number of non-NaN entries.
std::size_t ValidCount(DoubleSpan x);

/// Pearson correlation over pairwise-complete entries.
double PearsonCorrelation(DoubleSpan x,
                          DoubleSpan y);

/// Row indices of x's non-NaN entries, sorted by value. Equal values come
/// in no particular order: average ranks and quantiles depend only on the
/// values. Sort a column once and reuse its order across every pairwise
/// rank statistic below.
std::vector<std::size_t> ValueOrder(DoubleSpan x);

/// Spearman rank correlation over pairwise-complete entries (average ranks
/// for ties).
double SpearmanCorrelation(DoubleSpan x,
                           DoubleSpan y);

/// The same statistic from precomputed orders (`x_order` = ValueOrder(x),
/// `y_order` = ValueOrder(y)): each order is walked once, keeping the rows
/// the other column also observes, so a pair costs O(n) instead of two
/// sorts. Bitwise-equal to the pairwise overload.
double SpearmanCorrelation(DoubleSpan x,
                           const std::vector<std::size_t>& x_order,
                           DoubleSpan y,
                           const std::vector<std::size_t>& y_order);

/// (x - mean) / stddev; NaN entries stay NaN. A constant vector maps to all
/// zeros.
std::vector<double> Standardize(DoubleSpan x);

/// Z-score of each entry against the vector's own mean/stddev (NaN for NaN).
std::vector<double> ZScores(DoubleSpan x);

}  // namespace cdi::stats

#endif  // CDI_STATS_DESCRIPTIVE_H_
