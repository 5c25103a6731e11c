#ifndef CDI_SERVE_BUNDLE_LOADER_H_
#define CDI_SERVE_BUNDLE_LOADER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datagen/scenario.h"

namespace cdi::serve {

/// File inputs of a runtime `register` command — the serve-layer mirror
/// of cdi_cli's flags. Only `input_csv` and `entity_column` are
/// required; everything else defaults to empty (no KG, no lake, an
/// oracle that knows nothing).
struct ScenarioFileInputs {
  /// The analyst's table (CSV with a header row).
  std::string input_csv;
  /// Name of the entity key column inside `input_csv`.
  std::string entity_column;
  /// entity,property,value triple CSVs (knowledge::LoadKgTriplesCsv).
  std::vector<std::string> kg_csvs;
  /// Data-lake table CSVs; each table is named by its path.
  std::vector<std::string> lake_csvs;
  /// Domain-knowledge file (knowledge::LoadDomainKnowledge) feeding the
  /// causal oracle's concept graph, aliases, and the topic lexicon.
  std::string knowledge_file;
  /// Optional canonical exposure/outcome attributes, both or neither;
  /// registration checks them (ScenarioBundle::CheckPair). When set,
  /// planned and summarize (C-DAG plan) queries work against the
  /// scenario; when empty, only full-mode pair queries do.
  std::string exposure;
  std::string outcome;
};

/// Assembles a servable datagen::Scenario from files: reads the input
/// table, loads KG triples and lake tables, and wires the oracle/topics
/// from the domain-knowledge file. The result carries no ground truth
/// (empty cluster DAG, no clean data), so callers registering it must
/// supply explicit pipeline default options — the evaluation defaults
/// need a ground-truth cluster count this scenario does not have.
/// Errors cite the offending file.
Result<std::unique_ptr<datagen::Scenario>> LoadScenarioFromFiles(
    const std::string& name, const ScenarioFileInputs& inputs);

}  // namespace cdi::serve

#endif  // CDI_SERVE_BUNDLE_LOADER_H_
