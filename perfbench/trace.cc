#include "trace.h"

#include <cstring>
#include <map>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Frame frame;
  frame.span.name = name;
  frame.span.request = tracer_->request_;
  frame.span.id = tracer_->id_base_ | ++tracer_->next_id_;
  frame.span.parent =
      tracer_->open_.empty() ? 0 : tracer_->open_.back().span.id;
  tracer_->open_.push_back(frame);
  // Read the clock last, so the bookkeeping above is not inside the span.
  tracer_->open_.back().span.start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  Frame frame = tracer_->open_.back();
  tracer_->open_.pop_back();
  frame.span.end = end;
  const double duration = Seconds(frame.span.start, end);
  if (!tracer_->open_.empty()) {
    tracer_->open_.back().child_seconds += duration;
  }
  tracer_->SelfSamples(frame.span.name)
      .Add((duration - frame.child_seconds) * 1e6);
  if (tracer_->kept_.size() < kMaxKept) tracer_->kept_.push_back(frame.span);
}

Samples& Tracer::SelfSamples(const char* name) {
  for (auto& [layer, samples] : self_us_) {
    if (layer == name || std::strcmp(layer, name) == 0) return samples;
  }
  self_us_.emplace_back(name, Samples());
  return self_us_.back().second;
}

SampleSets SelfTimes(const std::vector<const Tracer*>& tracers,
                     const std::string& layer) {
  SampleSets sets;
  for (const Tracer* t : tracers) {
    for (const auto& [name, samples] : t->self_us()) {
      if (layer == name) sets.push_back(&samples);
    }
  }
  return sets;
}

bool WriteTrace(const std::string& path,
                const std::vector<const Tracer*>& tracers,
                Clock::time_point origin) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const auto us = [origin](Clock::time_point t) {
    return Seconds(origin, t) * 1e6;
  };
  std::map<std::string, SampleSets> layers;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"request\":%llu,\"id\":%llu,"
                   "\"parent\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), us(s.start),
                   us(s.end));
    }
    for (const auto& [name, samples] : t->self_us()) {
      layers[name].push_back(&samples);
    }
  }
  for (const auto& [name, sets] : layers) {
    std::fprintf(out,
                 "{\"layer\":\"%s\",\"spans\":%llu,\"self_us_p50\":%.3f,"
                 "\"self_us_mean\":%.3f}\n",
                 name.c_str(), static_cast<unsigned long long>(Count(sets)),
                 Quantile(sets, 0.5), Mean(sets));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
