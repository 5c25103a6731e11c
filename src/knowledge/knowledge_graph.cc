#include "knowledge/knowledge_graph.h"

#include <algorithm>
#include <string_view>

namespace cdi::knowledge {

namespace {

/// Builds one extracted column from its per-row cells (null = absent),
/// inferring the type as string > double > int64 > bool over the present
/// values and coercing mixed cells into it.
Result<table::Column> GatherColumn(
    std::string name, const std::vector<const table::Value*>& cells) {
  bool any_string = false, any_double = false, any_int = false,
       any_bool = false;
  for (const table::Value* v : cells) {
    if (v == nullptr) continue;
    any_string |= v->is_string();
    any_double |= v->is_double();
    any_int |= v->is_int64();
    any_bool |= v->is_bool();
  }
  table::DataType type = table::DataType::kString;
  if (!any_string && any_double) {
    type = table::DataType::kDouble;
  } else if (!any_string && any_int) {
    type = table::DataType::kInt64;
  } else if (!any_string && any_bool) {
    type = table::DataType::kBool;
  }
  table::Column col(std::move(name), type);
  col.Reserve(cells.size());
  for (const table::Value* v : cells) {
    if (v == nullptr || v->is_null()) {
      col.AppendNull();
      continue;
    }
    switch (type) {
      case table::DataType::kString:
        CDI_RETURN_IF_ERROR(
            col.AppendString(v->is_string() ? v->as_string() : v->ToString()));
        break;
      case table::DataType::kDouble:
        CDI_RETURN_IF_ERROR(col.AppendDouble(v->ToNumeric()));
        break;
      case table::DataType::kInt64:
        CDI_RETURN_IF_ERROR(col.AppendInt64(
            v->is_bool() ? (v->as_bool() ? 1 : 0) : v->as_int64()));
        break;
      case table::DataType::kBool:
        CDI_RETURN_IF_ERROR(col.AppendBool(v->as_bool()));
        break;
    }
  }
  return col;
}

/// First fact of `facts` (sorted by property id) whose property id is not
/// below `p`.
template <typename Pairs>
auto LowerBound(Pairs& facts, uint32_t p) {
  return std::lower_bound(
      facts.begin(), facts.end(), p,
      [](const auto& fact, uint32_t id) { return fact.first < id; });
}

/// Fact of property `p` in `facts`, or end().
template <typename Pairs>
auto FindProperty(Pairs& facts, uint32_t p) {
  auto it = LowerBound(facts, p);
  return it != facts.end() && it->first == p ? it : facts.end();
}

/// Sets property `p` of `facts` to `v`, replacing an earlier value.
template <typename Pairs, typename V>
void SetProperty(Pairs& facts, uint32_t p, V v) {
  auto it = LowerBound(facts, p);
  if (it != facts.end() && it->first == p) {
    it->second = std::move(v);
  } else {
    facts.emplace(it, p, std::move(v));
  }
}

}  // namespace

uint32_t KnowledgeGraph::InternName(const std::string& name) {
  auto [it, fresh] =
      ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (fresh) {
    names_.push_back(name);
    facts_.emplace_back();
  }
  return it->second;
}

uint32_t KnowledgeGraph::AddEntity(const std::string& name) {
  const uint32_t id = InternName(name);
  if (facts_[id].literals.empty() && facts_[id].links.empty()) {
    linker_.AddEntity(name);
  }
  return id;
}

uint32_t KnowledgeGraph::InternProperty(const std::string& name) {
  auto [it, fresh] = property_ids_.try_emplace(
      name, static_cast<uint32_t>(property_names_.size()));
  if (fresh) property_names_.push_back(name);
  return it->second;
}

uint32_t KnowledgeGraph::EntityId(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return kNone;
  const Facts& f = facts_[it->second];
  return f.literals.empty() && f.links.empty() ? kNone : it->second;
}

uint32_t KnowledgeGraph::PropertyId(const std::string& name) const {
  auto it = property_ids_.find(name);
  return it == property_ids_.end() ? kNone : it->second;
}

uint32_t KnowledgeGraph::FindLink(uint32_t e, uint32_t p) const {
  const auto& links = facts_[e].links;
  auto it = FindProperty(links, p);
  return it == links.end() ? kNone : it->second;
}

void KnowledgeGraph::AddLiteral(const std::string& entity,
                                const std::string& property,
                                table::Value value) {
  const uint32_t e = AddEntity(entity);
  SetProperty(facts_[e].literals, InternProperty(property), std::move(value));
}

void KnowledgeGraph::AddLink(const std::string& entity,
                             const std::string& property,
                             const std::string& target_entity) {
  const uint32_t e = AddEntity(entity);
  const uint32_t p = InternProperty(property);
  // Interned after `e`: interning may grow facts_.
  const uint32_t t = InternName(target_entity);
  SetProperty(facts_[e].links, p, t);
}

bool KnowledgeGraph::HasEntity(const std::string& entity) const {
  return EntityId(entity) != kNone;
}

std::vector<std::string> KnowledgeGraph::LiteralProperties(
    const std::string& entity) const {
  std::vector<std::string> out;
  const uint32_t e = EntityId(entity);
  if (e == kNone) return out;
  for (const auto& [p, v] : facts_[e].literals) {
    out.push_back(property_names_[p]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> KnowledgeGraph::LinkProperties(
    const std::string& entity) const {
  std::vector<std::string> out;
  const uint32_t e = EntityId(entity);
  if (e == kNone) return out;
  for (const auto& [p, t] : facts_[e].links) out.push_back(property_names_[p]);
  std::sort(out.begin(), out.end());
  return out;
}

Result<table::Value> KnowledgeGraph::GetLiteral(
    const std::string& entity, const std::string& property) const {
  const uint32_t e = EntityId(entity);
  if (e == kNone) return Status::NotFound("no entity " + entity);
  const auto& literals = facts_[e].literals;
  auto it = FindProperty(literals, PropertyId(property));
  if (it == literals.end()) {
    return Status::NotFound("entity " + entity + " has no " + property);
  }
  return it->second;
}

Result<std::string> KnowledgeGraph::GetLink(const std::string& entity,
                                            const std::string& property) const {
  const uint32_t e = EntityId(entity);
  if (e == kNone) return Status::NotFound("no entity " + entity);
  const uint32_t t = FindLink(e, PropertyId(property));
  if (t == kNone) {
    return Status::NotFound("entity " + entity + " has no link " + property);
  }
  return names_[t];
}

Status KnowledgeGraph::AppendLiteralColumns(
    const std::vector<uint32_t>& ids, const std::vector<uint32_t>& row,
    const std::string& prefix, const std::string& key_name,
    std::vector<uint32_t>* column_of, table::Table* out) const {
  // The union of the entities' literal properties, numbered in first-seen
  // order through `column_of` (all kNone on entry and on return).
  // value[u * d + j]: entity ids[j]'s value of property props[u].
  const std::size_t d = ids.size();
  std::vector<uint32_t> props;
  std::vector<const table::Value*> value;
  for (std::size_t j = 0; j < d; ++j) {
    for (const auto& [p, v] : facts_[ids[j]].literals) {
      uint32_t& u = (*column_of)[p];
      if (u == kNone) {
        u = static_cast<uint32_t>(props.size());
        props.push_back(p);
        value.resize(value.size() + d, nullptr);
      }
      value[u * d + j] = &v;
    }
  }
  for (const uint32_t p : props) (*column_of)[p] = kNone;
  std::vector<std::size_t> order(props.size());
  for (std::size_t u = 0; u < order.size(); ++u) order[u] = u;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return property_names_[props[a]] < property_names_[props[b]];
  });
  std::vector<const table::Value*> cells(row.size());
  for (const std::size_t u : order) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      cells[i] = row[i] == kNone ? nullptr : value[u * d + row[i]];
    }
    std::string name = prefix + property_names_[props[u]];
    if (name == key_name) {
      return Status::AlreadyExists("column '" + name + "' exists");
    }
    CDI_ASSIGN_OR_RETURN(table::Column column,
                         GatherColumn(std::move(name), cells));
    CDI_RETURN_IF_ERROR(out->AddColumn(std::move(column)));
  }
  return Status::OK();
}

Result<table::Table> KnowledgeGraph::ExtractProperties(
    const std::vector<std::string>& surface_keys, const std::string& key_name,
    bool follow_links, LatencyMeter* meter) const {
  const std::size_t n = surface_keys.size();
  // Link each distinct key once. `linked` lists the distinct entities the
  // keys link to, and row i's entity is linked[row_entity[i]] (kNone when
  // its key links to none).
  std::vector<uint32_t> linked, row_entity(n, kNone);
  // Scratch: a slot per entity id, kNone outside the loops that fill it.
  std::vector<uint32_t> slot_of(names_.size(), kNone);
  {
    std::unordered_map<std::string_view, uint32_t> slot_of_key;
    for (std::size_t i = 0; i < n; ++i) {
      if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerLookup);
      auto [it, fresh] = slot_of_key.try_emplace(surface_keys[i], kNone);
      if (fresh) {
        auto link = linker_.Link(surface_keys[i]);
        const uint32_t e = link.ok() ? EntityId(link->canonical) : kNone;
        if (e != kNone) {
          if (slot_of[e] == kNone) {
            slot_of[e] = static_cast<uint32_t>(linked.size());
            linked.push_back(e);
          }
          it->second = slot_of[e];
        }
      }
      row_entity[i] = it->second;
    }
    for (const uint32_t e : linked) slot_of[e] = kNone;
  }
  // One lookup per (linked row, link property with a target).
  if (follow_links && meter != nullptr) {
    for (const uint32_t j : row_entity) {
      if (j == kNone) continue;
      for (std::size_t k = 0; k < facts_[linked[j]].links.size(); ++k) {
        meter->Charge(kServiceName, kSecondsPerLookup);
      }
    }
  }

  table::Table out("kg_extraction");
  // Scratch for AppendLiteralColumns: a column number per property id.
  std::vector<uint32_t> column_of(property_names_.size(), kNone);
  CDI_RETURN_IF_ERROR(AppendLiteralColumns(linked, row_entity, "", key_name,
                                           &column_of, &out));
  if (!follow_links) return out;
  // The link properties of the linked entities, in name order; each adds
  // its targets' literals as "<link>_<property>" columns.
  std::vector<uint32_t> link_props;
  for (const uint32_t e : linked) {
    for (const auto& [p, t] : facts_[e].links) link_props.push_back(p);
  }
  std::sort(link_props.begin(), link_props.end());
  link_props.erase(std::unique(link_props.begin(), link_props.end()),
                   link_props.end());
  std::sort(link_props.begin(), link_props.end(),
            [&](uint32_t a, uint32_t b) {
              return property_names_[a] < property_names_[b];
            });
  // For one link: the distinct targets, and per linked entity its
  // target's slot there (kNone without a target).
  std::vector<uint32_t> targets, target_of(linked.size()), row_target(n);
  for (const uint32_t p : link_props) {
    targets.clear();
    for (std::size_t j = 0; j < linked.size(); ++j) {
      const uint32_t t = FindLink(linked[j], p);
      target_of[j] = kNone;
      if (t == kNone) continue;
      if (slot_of[t] == kNone) {
        slot_of[t] = static_cast<uint32_t>(targets.size());
        targets.push_back(t);
      }
      target_of[j] = slot_of[t];
    }
    for (const uint32_t t : targets) slot_of[t] = kNone;
    for (std::size_t i = 0; i < n; ++i) {
      row_target[i] = row_entity[i] == kNone ? kNone : target_of[row_entity[i]];
    }
    CDI_RETURN_IF_ERROR(AppendLiteralColumns(targets, row_target,
                                             property_names_[p] + "_",
                                             key_name, &column_of, &out));
  }
  return out;
}

}  // namespace cdi::knowledge
