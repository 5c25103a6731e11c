// The benchmark's workloads: cold_start, warm_hits and ingest_churn.
#ifndef CDI_PERFBENCH_WORKLOADS_H_
#define CDI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans (empty: not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Observations behind the value (0 for counters and gauges).
  std::uint64_t samples = 0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The contract metrics of this run: end-to-end ones in an untraced
  /// run, per-layer ones in a traced run.
  std::vector<Metric> metrics;
  /// Human-readable figures printed before the result line.
  std::vector<Metric> report;
  std::vector<std::string> problems;
};

/// Runs one workload. Input generation and reference computation happen
/// before any timing; a mismatch or failed operation clears `correct`.
Outcome RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // CDI_PERFBENCH_WORKLOADS_H_
