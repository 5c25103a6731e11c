#include "stats/factor_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <utility>

#include "stats/correlation.h"

namespace cdi::stats {
namespace {

// Keys are the raw ordered index sequence, 4 bytes per index — so the key
// of any prefix of S is a byte prefix of S's key and prefix probing is a
// substring + hash lookup.
std::string EncodeKey(const std::vector<std::size_t>& s, std::size_t len) {
  std::string key(len * 4, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint32_t v = static_cast<std::uint32_t>(s[i]);
    std::memcpy(&key[i * 4], &v, 4);
  }
  return key;
}

// Appends row t of the packed factor of base[s, s] + ridge·I. The loop
// body replays Cholesky() row t exactly — same reads, same subtraction
// order (k ascending), same pivot test — so an extended factor is bitwise
// identical to a from-scratch one. Returns false on a non-positive pivot
// (leaving *l at its valid t-row prefix).
bool AppendFactorRow(const Matrix& a, double ridge,
                     const std::vector<std::size_t>& s, std::size_t t,
                     std::vector<double>* l) {
  const std::size_t off = t * (t + 1) / 2;
  l->resize(off + t + 1);
  double* row = l->data() + off;
  for (std::size_t j = 0; j < t; ++j) {
    double sum = a(s[t], s[j]);
    const double* rj = l->data() + j * (j + 1) / 2;
    for (std::size_t k = 0; k < j; ++k) sum -= row[k] * rj[k];
    row[j] = sum / rj[j];
  }
  double sum = a(s[t], s[t]) + ridge;
  for (std::size_t k = 0; k < t; ++k) sum -= row[k] * row[k];
  if (sum <= 0.0) {
    l->resize(off);
    return false;
  }
  row[t] = std::sqrt(sum);
  return true;
}

// Conditioning sets up to this many variables are factored inline into a
// thread-local buffer instead of going through the cache map: the map
// round trip (key encode, shared lock, hash probe, shared_ptr refcount)
// costs more than redoing a factor this small, and PC workloads are
// dominated by k=2..3 queries. Inline factors replay AppendFactorRow, so
// the answer is bitwise identical either way.
constexpr std::size_t kInlineFactorOrder = 3;

// Extends the packed factor `l` of base[given, given] + ridge·I by the
// two query rows — positions k and k+1 of the ordering (given..., i, j)
// that the from-scratch path uses — on the stack, and reads the partial
// correlation off the trailing 2x2 block. Returns true with *rho set on
// success; false on a non-positive pivot (callers then take the same
// pivoted precision-matrix fallback the uncached path takes).
bool ExtendByQueryRows(const Matrix& corr, double ridge,
                       const std::vector<double>& l, std::size_t k,
                       std::size_t i, std::size_t j,
                       const std::vector<std::size_t>& given, double* rho) {
  thread_local std::vector<double> li, lj;
  li.resize(k + 1);
  lj.resize(k + 2);
  for (std::size_t j2 = 0; j2 < k; ++j2) {
    double sum = corr(i, given[j2]);
    const double* rj = l.data() + j2 * (j2 + 1) / 2;
    for (std::size_t t = 0; t < j2; ++t) sum -= li[t] * rj[t];
    li[j2] = sum / rj[j2];
  }
  {
    double sum = corr(i, i) + ridge;
    for (std::size_t t = 0; t < k; ++t) sum -= li[t] * li[t];
    if (sum <= 0.0) return false;
    li[k] = std::sqrt(sum);
  }
  for (std::size_t j2 = 0; j2 < k; ++j2) {
    double sum = corr(j, given[j2]);
    const double* rj = l.data() + j2 * (j2 + 1) / 2;
    for (std::size_t t = 0; t < j2; ++t) sum -= lj[t] * rj[t];
    lj[j2] = sum / rj[j2];
  }
  {
    double sum = corr(j, i);
    for (std::size_t t = 0; t < k; ++t) sum -= lj[t] * li[t];
    lj[k] = sum / li[k];
    double d = corr(j, j) + ridge;
    for (std::size_t t = 0; t < k + 1; ++t) d -= lj[t] * lj[t];
    if (d <= 0.0) return false;
    lj[k + 1] = std::sqrt(d);
  }
  const double b = lj[k];
  const double c = lj[k + 1];
  const double den = std::sqrt(b * b + c * c);
  if (den <= 1e-12 || !std::isfinite(den)) {
    *rho = 0.0;
    return true;
  }
  *rho = std::clamp(b / den, -1.0, 1.0);
  return true;
}

}  // namespace

FactorCache::FactorCache(const Matrix* base, double ridge)
    : base_(base), ridge_(ridge) {}

std::shared_ptr<const FactorCache::Factor> FactorCache::Lookup(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = map_.find(key);
  return it == map_.end() ? nullptr : it->second;
}

std::shared_ptr<const FactorCache::Factor> FactorCache::FactorFor(
    const std::vector<std::size_t>& s) {
  const std::size_t k = s.size();
  const std::string key = EncodeKey(s, k);
  if (auto f = Lookup(key)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return f;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  // Longest cached prefix (>= 2 variables; smaller factors are cheaper to
  // recompute than to look up).
  std::shared_ptr<const Factor> prefix;
  std::size_t plen = 0;
  for (std::size_t len = k - 1; len >= 2; --len) {
    if (auto f = Lookup(std::string(key.data(), len * 4))) {
      prefix = std::move(f);
      plen = len;
      break;
    }
  }

  auto f = std::make_shared<Factor>();
  f->n = k;
  std::size_t start = 0;
  if (prefix) {
    f->failed = prefix->failed;
    f->l = prefix->l;
    start = plen;
  }
  if (!f->failed) {
    for (std::size_t t = start; t < k; ++t) {
      if (!AppendFactorRow(*base_, ridge_, s, t, &f->l)) {
        f->failed = true;
        break;
      }
    }
    if (prefix) {
      rows_extended_.fetch_add(k - plen, std::memory_order_relaxed);
    } else {
      rows_from_scratch_.fetch_add(k, std::memory_order_relaxed);
    }
  }

  const std::size_t bytes = EntryBytes(key, *f);
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = map_.emplace(key, std::move(f));
  // On a race the first insert wins; both computed identical bits anyway.
  if (inserted) bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return it->second;
}

Result<double> FactorCache::PartialCorrelation(
    std::size_t i, std::size_t j, const std::vector<std::size_t>& given) {
  const Matrix& corr = *base_;
  if (i >= corr.rows() || j >= corr.rows() || i == j) {
    return Status::InvalidArgument("bad variable indices");
  }
  // Unconditioned / single-variable cases have closed forms that never
  // factor anything — share them verbatim.
  if (given.size() < 2) return stats::PartialCorrelation(corr, i, j, given);

  const std::size_t k = given.size();
  double rho;
  if (k <= kInlineFactorOrder) {
    // Hot path: rebuild the tiny conditioning factor in place — cheaper
    // than fetching it, and no lock or allocation after warmup.
    inline_factors_.fetch_add(1, std::memory_order_relaxed);
    thread_local std::vector<double> small;
    small.clear();
    bool ok = true;
    for (std::size_t t = 0; t < k; ++t) {
      if (!AppendFactorRow(corr, ridge_, given, t, &small)) {
        ok = false;
        break;
      }
    }
    if (ok && ExtendByQueryRows(corr, ridge_, small, k, i, j, given, &rho)) {
      return rho;
    }
  } else {
    auto f = FactorFor(given);
    if (!f->failed &&
        ExtendByQueryRows(corr, ridge_, f->l, k, i, j, given, &rho)) {
      return rho;
    }
  }
  // Degenerate factorization: same pivoted precision-matrix fallback the
  // uncached path takes — and it fails there iff it fails here, because a
  // pivot failure is a pure function of the submatrix.
  return PartialCorrelationPrecisionFallback(corr, i, j, given);
}

Result<std::vector<double>> FactorCache::Solve(
    const std::vector<std::size_t>& s, const std::vector<double>& rhs) {
  const std::size_t n = s.size();
  if (rhs.size() != n) return Status::InvalidArgument("rhs size mismatch");
  for (std::size_t idx : s) {
    if (idx >= base_->rows()) {
      return Status::InvalidArgument("bad variable indices");
    }
  }
  if (n < 2) {
    // Below the caching threshold: solve the 1x1 system directly with the
    // same arithmetic CholeskySolve would use.
    if (n == 0) return std::vector<double>{};
    const double a = (*base_)(s[0], s[0]) + ridge_;
    if (a <= 0.0) {
      return Status::FailedPrecondition(
          "matrix is not positive definite (pivot " + std::to_string(a) +
          " at 0)");
    }
    const double l00 = std::sqrt(a);
    return std::vector<double>{rhs[0] / l00 / l00};
  }
  auto f = FactorFor(s);
  if (f->failed) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }
  const std::vector<double>& l = f->l;
  // Forward solve L y = rhs, then back solve L^T x = y — the exact loops
  // of CholeskySolve, re-indexed for the packed layout.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = rhs[i];
    const double* ri = l.data() + i * (i + 1) / 2;
    for (std::size_t t = 0; t < i; ++t) acc -= ri[t] * y[t];
    y[i] = acc / ri[i];
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t t = ii + 1; t < n; ++t) {
      acc -= l[t * (t + 1) / 2 + ii] * x[t];
    }
    x[ii] = acc / l[ii * (ii + 1) / 2 + ii];
  }
  return x;
}

void FactorCache::EvictSmallerThan(std::size_t min_vars) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second->n < min_vars) {
      bytes_.fetch_sub(EntryBytes(it->first, *it->second),
                       std::memory_order_relaxed);
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t FactorCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return map_.size();
}

std::size_t FactorCache::EntryBytes(const std::string& key,
                                    const Factor& factor) {
  return key.size() + sizeof(Factor) + factor.l.size() * sizeof(double);
}

}  // namespace cdi::stats
