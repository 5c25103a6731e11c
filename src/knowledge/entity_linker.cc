#include "knowledge/entity_linker.h"

#include <algorithm>

#include "common/string_util.h"

namespace cdi::knowledge {

void EntityLinker::AddEntity(const std::string& canonical,
                             const std::vector<std::string>& aliases) {
  std::string norm = NormalizeEntityName(canonical);
  if (exact_.emplace(canonical, Surface{canonical, norm}).second) {
    canonicals_.push_back(canonical);
  }
  normalized_.emplace(std::move(norm), canonical);
  for (const auto& a : aliases) AddAlias(canonical, a);
}

void EntityLinker::AddAlias(const std::string& canonical,
                            const std::string& alias) {
  std::string norm = NormalizeEntityName(alias);
  exact_.emplace(alias, Surface{canonical, norm});
  normalized_.emplace(std::move(norm), canonical);
}

Result<LinkResult> EntityLinker::Link(const std::string& surface) const {
  LinkResult out;
  // 1. Exact (canonical or alias).
  auto it = exact_.find(surface);
  if (it != exact_.end()) {
    out.canonical = it->second.canonical;
    out.method = it->second.canonical == surface ? LinkMethod::kExact
                                                 : LinkMethod::kAlias;
    return out;
  }
  // 2. Normalized.
  const std::string norm = NormalizeEntityName(surface);
  auto nit = normalized_.find(norm);
  if (nit != normalized_.end()) {
    out.canonical = nit->second;
    out.method = LinkMethod::kNormalized;
    return out;
  }
  // 3. Fuzzy over canonical names and registered surfaces.
  double best = 0;
  const std::string* best_canonical = nullptr;
  for (const auto& [surf, entry] : exact_) {
    const double sim = JaroWinkler(entry.normalized, norm);
    if (sim > best) {
      best = sim;
      best_canonical = &entry.canonical;
    }
  }
  if (best_canonical != nullptr && best >= fuzzy_threshold_) {
    out.canonical = *best_canonical;
    out.method = LinkMethod::kFuzzy;
    out.confidence = best;
    return out;
  }
  return Status::NotFound("cannot link entity '" + surface + "'");
}

}  // namespace cdi::knowledge
