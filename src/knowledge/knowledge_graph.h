#ifndef CDI_KNOWLEDGE_KNOWLEDGE_GRAPH_H_
#define CDI_KNOWLEDGE_KNOWLEDGE_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "knowledge/entity_linker.h"
#include "table/table.h"

namespace cdi::knowledge {

/// In-memory RDF-style triple store standing in for DBpedia. Entities have
/// literal-valued properties ("avg_temp" -> 61.17) and entity-valued
/// properties ("governor" -> another entity), which the extractor can
/// follow one level deep — the paper's "follow links in the KG" idea.
///
/// Storage is indexed at load: every entity name (link targets included)
/// and every property name is interned into a dense id, and each entity
/// keeps its own facts entity-major — (property id, value) literals and
/// (property id, target id) links, sorted by property id — so memory is
/// O(triples) and extraction gathers by id instead of walking string
/// maps. The store is read-only after load: concurrent ExtractProperties
/// calls share it without locks.
class KnowledgeGraph {
 public:
  /// Nominal per-lookup latency charged to a LatencyMeter (a remote SPARQL
  /// endpoint round-trip).
  static constexpr double kSecondsPerLookup = 0.15;
  static constexpr char kServiceName[] = "knowledge_graph";

  /// Adds entity if missing and sets a literal property value (a later
  /// call for the same entity and property replaces the value).
  void AddLiteral(const std::string& entity, const std::string& property,
                  table::Value value);

  /// Adds an entity-valued property (a link). The target need not be an
  /// entity of the graph; a dangling target contributes no properties.
  void AddLink(const std::string& entity, const std::string& property,
               const std::string& target_entity);

  /// Registers an alias for entity disambiguation.
  void AddAlias(const std::string& entity, const std::string& alias) {
    linker_.AddAlias(entity, alias);
  }

  /// True once `entity` has a literal or a link of its own.
  bool HasEntity(const std::string& entity) const;

  /// Literal property names of `entity` (sorted).
  std::vector<std::string> LiteralProperties(const std::string& entity) const;

  /// Link property names of `entity` (sorted).
  std::vector<std::string> LinkProperties(const std::string& entity) const;

  Result<table::Value> GetLiteral(const std::string& entity,
                                  const std::string& property) const;

  Result<std::string> GetLink(const std::string& entity,
                              const std::string& property) const;

  const EntityLinker& linker() const { return linker_; }
  EntityLinker& mutable_linker() { return linker_; }

  /// Extracts a property table for `surface_keys` (one row each, in
  /// order): links each distinct key once via the entity linker, emits one
  /// column per literal property present on any linked entity (null where
  /// absent), and — when `follow_links` is true — additionally pulls the
  /// literal properties of link targets as "<link>_<property>" columns.
  /// Columns come in property-name order, literals first. A column's type
  /// is inferred from its values (string > double > int64 > bool; mixed
  /// cells are coerced to it). Keys that fail to link produce all-null
  /// rows. `meter` (may be null) is charged one lookup per row, plus one
  /// per (linked row, link property with a target) when following links.
  /// Row i aligns with surface_keys[i]; the keys themselves are not
  /// copied out. `key_name` names the caller's key column, so a property
  /// column of that name fails with kAlreadyExists. With no linked
  /// properties the table has no columns (and so no rows).
  Result<table::Table> ExtractProperties(
      const std::vector<std::string>& surface_keys,
      const std::string& key_name, bool follow_links,
      LatencyMeter* meter) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The facts of one interned name, each list sorted by property id.
  /// Both are empty for a name that is only a (dangling) link target.
  struct Facts {
    std::vector<std::pair<uint32_t, table::Value>> literals;
    std::vector<std::pair<uint32_t, uint32_t>> links;  // property, target
  };

  /// Dense id of entity name `name`, interning it on first sight.
  uint32_t InternName(const std::string& name);
  /// Interns `name` and registers it with the linker once it gains its
  /// first fact.
  uint32_t AddEntity(const std::string& name);
  /// Dense id of property name `name`, interning it on first sight.
  uint32_t InternProperty(const std::string& name);
  /// Id of `name` when it is an entity (has a fact), kNone otherwise.
  uint32_t EntityId(const std::string& name) const;
  /// Id of property `name`, kNone when no fact uses it.
  uint32_t PropertyId(const std::string& name) const;
  /// Entity `e`'s target of link property `p` (kNone matches no
  /// property), kNone when absent.
  uint32_t FindLink(uint32_t e, uint32_t p) const;
  /// Appends to `out` one column per literal property present on any of
  /// the distinct entities `ids`, named `prefix` + property, in
  /// property-name order. Row i takes the value of entity ids[row[i]]
  /// (none when row[i] is kNone). `column_of` is scratch with one kNone
  /// entry per property id, left as it was found. A column named
  /// `key_name` fails with kAlreadyExists.
  Status AppendLiteralColumns(const std::vector<uint32_t>& ids,
                              const std::vector<uint32_t>& row,
                              const std::string& prefix,
                              const std::string& key_name,
                              std::vector<uint32_t>* column_of,
                              table::Table* out) const;

  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Facts> facts_;  // facts_[id], parallel to names_
  std::unordered_map<std::string, uint32_t> property_ids_;
  std::vector<std::string> property_names_;
  EntityLinker linker_;
};

}  // namespace cdi::knowledge

#endif  // CDI_KNOWLEDGE_KNOWLEDGE_GRAPH_H_
