#ifndef CDI_KNOWLEDGE_ENTITY_LINKER_H_
#define CDI_KNOWLEDGE_ENTITY_LINKER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace cdi::knowledge {

/// How a surface form was resolved to a canonical entity.
enum class LinkMethod {
  kExact,       ///< canonical name matched verbatim
  kAlias,       ///< a registered alias matched
  kNormalized,  ///< match after case/punctuation normalization
  kFuzzy,       ///< Jaro-Winkler similarity above threshold
};

struct LinkResult {
  std::string canonical;
  LinkMethod method = LinkMethod::kExact;
  /// 1.0 for exact/alias/normalized, the similarity score for fuzzy.
  double confidence = 1.0;
};

/// Named-entity disambiguation for the Knowledge Extractor: maps cell
/// values from the input table ("MA", "Massachusetts ", "massachusetts")
/// onto canonical knowledge-graph entities. Resolution order: exact →
/// alias → normalized → fuzzy.
class EntityLinker {
 public:
  /// Registers a canonical entity and optional aliases. Re-registering the
  /// same canonical adds aliases.
  void AddEntity(const std::string& canonical,
                 const std::vector<std::string>& aliases = {});

  /// Adds one alias to an existing or future canonical entity.
  void AddAlias(const std::string& canonical, const std::string& alias);

  /// Resolves a surface form; NotFound when nothing clears
  /// `fuzzy_threshold`.
  Result<LinkResult> Link(const std::string& surface) const;

  /// All canonical entities, in registration order.
  const std::vector<std::string>& entities() const { return canonicals_; }

  /// Minimum Jaro-Winkler similarity for a fuzzy match (default 0.90).
  void set_fuzzy_threshold(double t) { fuzzy_threshold_ = t; }
  double fuzzy_threshold() const { return fuzzy_threshold_; }

 private:
  /// A registered surface form's canonical entity, with the surface's
  /// normalized form precomputed for fuzzy matching.
  struct Surface {
    std::string canonical;
    std::string normalized;
  };

  std::vector<std::string> canonicals_;
  std::unordered_map<std::string, Surface> exact_;  // surface -> entry
  std::unordered_map<std::string, std::string> normalized_;  // norm -> canon
  double fuzzy_threshold_ = 0.90;
};

}  // namespace cdi::knowledge

#endif  // CDI_KNOWLEDGE_ENTITY_LINKER_H_
