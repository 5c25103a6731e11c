// Spans the benchmark records around its calls into each layer's public
// functions (the library itself is not instrumented).
#ifndef CDI_PERFBENCH_TRACE_H_
#define CDI_PERFBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "samples.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t request = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  Clock::time_point start;
  Clock::time_point end;
};

/// Span log of one thread. Spans nest by scope; when a span closes, its
/// self time (duration minus the time its child spans cover) goes into
/// the per-layer samples. The first kMaxKept spans are kept verbatim for
/// the trace file; the self-time samples cover every span.
class Tracer {
 public:
  static constexpr std::size_t kMaxKept = 5000;

  explicit Tracer(std::uint64_t thread_index)
      : id_base_(thread_index << 40) {}

  /// Starts a new request; spans opened until the next call share its id.
  void BeginRequest() { request_ = id_base_ | ++requests_; }

  class Scope {
   public:
    /// A null tracer records nothing.
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Self-time samples (microseconds) by span name.
  const std::vector<std::pair<const char*, Samples>>& self_us() const {
    return self_us_;
  }
  const std::vector<Span>& spans() const { return kept_; }

 private:
  struct Frame {
    Span span;
    double child_seconds = 0.0;
  };

  Samples& SelfSamples(const char* name);

  const std::uint64_t id_base_;
  std::uint64_t requests_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<Frame> open_;
  std::vector<Span> kept_;
  std::vector<std::pair<const char*, Samples>> self_us_;
};

/// Self-time samples of `layer` across every tracer.
SampleSets SelfTimes(const std::vector<const Tracer*>& tracers,
                     const std::string& layer);

/// Writes every kept span (JSON lines, times in microseconds from
/// `origin`) followed by one self-time summary line per layer.
bool WriteTrace(const std::string& path,
                const std::vector<const Tracer*>& tracers,
                Clock::time_point origin);

}  // namespace perfbench

#endif  // CDI_PERFBENCH_TRACE_H_
