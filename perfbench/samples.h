// Latency sample sets and the quantiles the benchmark reports.
#ifndef CDI_PERFBENCH_SAMPLES_H_
#define CDI_PERFBENCH_SAMPLES_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Samples of one measurement taken by one thread. Keeps every value up
/// to a fixed capacity and a uniform reservoir beyond it, so memory stays
/// flat however fast the server answers (the run's peak RSS is one of the
/// reported metrics and must not grow with throughput).
class Samples {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;

  void Add(double value);
  /// Values observed, including those the reservoir dropped.
  std::uint64_t count() const { return count_; }
  const std::vector<double>& kept() const { return kept_; }

 private:
  std::vector<double> kept_;
  std::uint64_t count_ = 0;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
};

/// One measurement gathered by several threads.
using SampleSets = std::vector<const Samples*>;

/// The q-quantile (0 <= q <= 1) of everything observed, each kept value
/// weighted by the observations it stands for. 0 when nothing was seen.
double Quantile(const SampleSets& sets, double q);
double Mean(const SampleSets& sets);
std::uint64_t Count(const SampleSets& sets);

inline double Quantile(const Samples& s, double q) { return Quantile({&s}, q); }
inline double Mean(const Samples& s) { return Mean(SampleSets{&s}); }

/// Largest resident set of the process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // CDI_PERFBENCH_SAMPLES_H_
