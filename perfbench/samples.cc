#include "samples.h"

#include <sys/resource.h>

#include <algorithm>
#include <utility>

namespace perfbench {

void Samples::Add(double value) {
  ++count_;
  if (kept_.size() < kCapacity) {
    kept_.push_back(value);
    return;
  }
  // Reservoir sampling (algorithm R) with a private xorshift stream.
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  const std::uint64_t slot = rng_ % count_;
  if (slot < kCapacity) kept_[slot] = value;
}

double Quantile(const SampleSets& sets, double q) {
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  double total = 0.0;
  for (const Samples* s : sets) {
    if (s->kept().empty()) continue;
    const double w = static_cast<double>(s->count()) /
                     static_cast<double>(s->kept().size());
    for (double v : s->kept()) weighted.emplace_back(v, w);
    total += static_cast<double>(s->count());
  }
  if (weighted.empty()) return 0.0;
  std::sort(weighted.begin(), weighted.end());
  // Smallest value whose cumulative weight reaches q of the total.
  const double target = std::clamp(q, 0.0, 1.0) * total;
  double cumulative = 0.0;
  for (const auto& [value, weight] : weighted) {
    cumulative += weight;
    if (cumulative >= target) return value;
  }
  return weighted.back().first;
}

double Mean(const SampleSets& sets) {
  double sum = 0.0;
  double total = 0.0;
  for (const Samples* s : sets) {
    if (s->kept().empty()) continue;
    const double w = static_cast<double>(s->count()) /
                     static_cast<double>(s->kept().size());
    for (double v : s->kept()) sum += v * w;
    total += static_cast<double>(s->count());
  }
  return total == 0.0 ? 0.0 : sum / total;
}

std::uint64_t Count(const SampleSets& sets) {
  std::uint64_t n = 0;
  for (const Samples* s : sets) n += s->count();
  return n;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
