// cdi_perfbench — the end-to-end serving benchmark.
//
// Usage:
//   cdi_perfbench --workload cold_start|warm_hits|ingest_churn --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//
// Drives an in-process QueryServer through the calls cdi_serve makes
// (ParseCommandLine -> Submit -> wait -> FormatResponseLine, plus
// RegisterScenario and UpdateScenario) on inputs generated from the seed,
// checks every served payload byte for byte against references computed
// before timing starts, and prints one figure per line followed by a
// single JSON result line. An untraced run reports the end-to-end
// metrics; a traced run (--trace 1) reports the per-layer ones and
// writes its spans to --trace-out. See README.md for the metric
// definitions.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: cdi_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && ParseUnsigned(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds" && ParseUnsigned(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && ParseUnsigned(value, &n) && n <= 1) {
      options.trace = n == 1;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::fprintf(stderr, "bad flag or value: %s %s\n", flag.c_str(), value);
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload) return Usage();

  perfbench::Outcome outcome = perfbench::RunWorkload(options);

  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const perfbench::Metric& m : outcome.report) {
    std::printf("  %-34s %16.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& p : outcome.problems) {
    std::printf("  problem: %s\n", p.c_str());
  }
  std::string metrics;
  for (const perfbench::Metric& m : outcome.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      outcome.correct = false;
      value = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
