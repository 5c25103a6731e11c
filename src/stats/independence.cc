#include "stats/independence.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace cdi::stats {

namespace {

/// Maps arbitrary codes to a dense 0..k-1 range; -1 stays -1.
std::vector<int> Densify(const std::vector<int>& x, int* cardinality) {
  std::map<int, int> remap;
  std::vector<int> out(x.size(), -1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0) continue;
    auto [it, _] = remap.emplace(x[i], static_cast<int>(remap.size()));
    out[i] = it->second;
  }
  *cardinality = static_cast<int>(remap.size());
  return out;
}

/// Chi-square statistic and dof of an r x c contingency table.
void TableChiSquare(const std::vector<std::vector<double>>& counts,
                    double* stat, double* dof, double* cramers_v) {
  const std::size_t r = counts.size();
  const std::size_t c = r == 0 ? 0 : counts[0].size();
  std::vector<double> row_sum(r, 0.0), col_sum(c, 0.0);
  double total = 0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      row_sum[i] += counts[i][j];
      col_sum[j] += counts[i][j];
      total += counts[i][j];
    }
  }
  *stat = 0;
  if (total <= 0) {
    *dof = 0;
    *cramers_v = 0;
    return;
  }
  std::size_t nonzero_rows = 0, nonzero_cols = 0;
  for (double s : row_sum) nonzero_rows += s > 0 ? 1 : 0;
  for (double s : col_sum) nonzero_cols += s > 0 ? 1 : 0;
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const double expected = row_sum[i] * col_sum[j] / total;
      if (expected > 0) {
        const double d = counts[i][j] - expected;
        *stat += d * d / expected;
      }
    }
  }
  *dof = nonzero_rows >= 1 && nonzero_cols >= 1
             ? static_cast<double>((nonzero_rows - 1) * (nonzero_cols - 1))
             : 0.0;
  const double k = static_cast<double>(
      std::min(nonzero_rows, nonzero_cols));
  *cramers_v = (k > 1 && total > 0)
                   ? std::sqrt(*stat / (total * (k - 1.0)))
                   : 0.0;
}

}  // namespace

Result<IndependenceResult> ChiSquareIndependence(const std::vector<int>& x,
                                                 const std::vector<int>& y) {
  if (x.size() != y.size()) return Status::InvalidArgument("size mismatch");
  int kx = 0, ky = 0;
  // Keep only pairwise-complete entries.
  std::vector<int> xv, yv;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    xv.push_back(x[i]);
    yv.push_back(y[i]);
  }
  if (xv.size() < 2) return Status::FailedPrecondition("too few rows");
  xv = Densify(xv, &kx);
  yv = Densify(yv, &ky);
  if (kx < 2 || ky < 2) {
    // A constant variable is trivially independent of anything.
    IndependenceResult r;
    r.p_value = 1.0;
    return r;
  }
  std::vector<std::vector<double>> counts(
      kx, std::vector<double>(ky, 0.0));
  for (std::size_t i = 0; i < xv.size(); ++i) counts[xv[i]][yv[i]] += 1.0;
  IndependenceResult r;
  double dof = 0;
  TableChiSquare(counts, &r.statistic, &dof, &r.strength);
  r.p_value = dof > 0 ? ChiSquareSf(r.statistic, dof) : 1.0;
  return r;
}

double DiscreteMutualInformation(const std::vector<int>& x,
                                 const std::vector<int>& y) {
  std::map<std::pair<int, int>, double> joint;
  std::map<int, double> px, py;
  double n = 0;
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    if (x[i] < 0 || y[i] < 0) continue;
    joint[{x[i], y[i]}] += 1;
    px[x[i]] += 1;
    py[y[i]] += 1;
    n += 1;
  }
  if (n <= 0) return 0.0;
  double mi = 0;
  for (const auto& [xy, c] : joint) {
    const double pxy = c / n;
    const double p1 = px[xy.first] / n;
    const double p2 = py[xy.second] / n;
    mi += pxy * std::log(pxy / (p1 * p2));
  }
  return std::max(0.0, mi);
}

std::vector<int> QuantileBin(DoubleSpan x, int bins) {
  return QuantileBin(x, ValueOrder(x), bins);
}

std::vector<int> QuantileBin(DoubleSpan x,
                             const std::vector<std::size_t>& order,
                             int bins) {
  std::vector<double> sorted;
  sorted.reserve(order.size());
  for (std::size_t row : order) sorted.push_back(x[row]);
  std::vector<double> edges;
  for (int b = 1; b < bins; ++b) {
    edges.push_back(QuantileOfSorted(sorted, static_cast<double>(b) / bins));
  }
  std::vector<int> out(x.size(), -1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::isnan(x[i])) continue;
    int code = 0;
    for (double e : edges) {
      if (x[i] > e) ++code;
    }
    out[i] = code;
  }
  return out;
}

}  // namespace cdi::stats
