#ifndef CDI_CORE_KNOWLEDGE_EXTRACTOR_H_
#define CDI_CORE_KNOWLEDGE_EXTRACTOR_H_

#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/timer.h"
#include "knowledge/data_lake.h"
#include "knowledge/knowledge_graph.h"
#include "table/table.h"

namespace cdi::core {

struct ExtractorOptions {
  /// Follow entity-valued KG properties one hop.
  bool follow_kg_links = true;
  /// Minimum key containment for a lake table to be considered joinable.
  double min_containment = 0.6;
  /// Relevance filter (avoids the curse of dimensionality the paper warns
  /// about): an extracted numeric attribute is kept when its association
  /// with the exposure or outcome — max of |Pearson| and |Spearman|, the
  /// latter for outlier robustness — is significant at `relevance_alpha`
  /// and at least `min_relevance` in magnitude. String attributes always
  /// pass (the Data Organizer judges them).
  double relevance_alpha = 0.01;
  double min_relevance = 0.05;
  /// Also accept attributes whose *nonlinear* association (quantile-binned
  /// chi-square) with a reference is significant — catches confounders
  /// related non-monotonically, which correlation-based relevance misses.
  bool nonlinear_relevance = true;
  /// Hard cap on extracted attributes (most relevant first); -1 = none.
  int max_attributes = -1;
};

/// Provenance and relevance of one extracted attribute.
struct ExtractedAttribute {
  std::string name;
  /// "knowledge_graph" or the lake table's name.
  std::string source;
  double corr_with_exposure = 0.0;
  double corr_with_outcome = 0.0;
  bool kept = true;
  /// Why it was dropped, when !kept: "irrelevant", "attribute-budget"
  /// (over `max_attributes`) or "duplicate-name".
  std::string drop_reason;
};

struct ExtractionResult {
  /// Input table plus all kept extracted columns (row-aligned).
  table::Table augmented;
  std::vector<ExtractedAttribute> attributes;
  std::size_t kg_columns_found = 0;
  std::size_t lake_columns_found = 0;
};

/// §3.1 — The Knowledge Extractor. Mines candidate unobserved attributes
/// for the entities of the input table from a knowledge graph (entity
/// linking + property extraction + link following) and a data lake
/// (joinability search + correlation-aware column selection), then filters
/// them for relevance to the causal question. Per call, the lake is joined
/// once, and each reference and candidate column is sorted and binned once.
class KnowledgeExtractor {
 public:
  KnowledgeExtractor(const knowledge::KnowledgeGraph* kg,
                     const knowledge::DataLake* lake,
                     ExtractorOptions options = ExtractorOptions())
      : kg_(kg), lake_(lake), options_(options) {}

  /// Extracts attributes for `input`'s entities (named by `entity_column`)
  /// relevant to exposure/outcome. Charges simulated external latency to
  /// `meter` when non-null. `cancel` (may be null) is polled before each
  /// candidate column is scored; a cancelled or expired token fails the
  /// call with its Status and no partial result.
  Result<ExtractionResult> Extract(const table::Table& input,
                                   const std::string& entity_column,
                                   const std::string& exposure,
                                   const std::string& outcome,
                                   LatencyMeter* meter = nullptr,
                                   const CancelToken* cancel = nullptr) const;

 private:
  const knowledge::KnowledgeGraph* kg_;   // may be null (no KG source)
  const knowledge::DataLake* lake_;       // may be null (no lake source)
  ExtractorOptions options_;
};

}  // namespace cdi::core

#endif  // CDI_CORE_KNOWLEDGE_EXTRACTOR_H_
