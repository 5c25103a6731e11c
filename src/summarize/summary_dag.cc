#include "summarize/summary_dag.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "graph/adjustment.h"
#include "graph/dot.h"

namespace cdi::summarize {

namespace {

/// JSON string escaping (control characters, quotes, backslashes). Node
/// names are attribute/cluster identifiers, but the renderer must stay
/// lossless for any input.
void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonStringArray(const std::vector<std::string>& values,
                           std::string* out) {
  out->push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(values[i], out);
  }
  out->push_back(']');
}

/// `query` (graph::Mediators or graph::Confounders) between the nodes
/// named `t` and `o`; empty when either is missing.
std::set<graph::NodeId> EndpointQuery(
    const graph::Digraph& g, const std::string& t, const std::string& o,
    Result<std::set<graph::NodeId>> (*query)(const graph::Digraph&,
                                             graph::NodeId, graph::NodeId)) {
  auto t_id = g.NodeIdOf(t);
  auto o_id = g.NodeIdOf(o);
  if (!t_id.ok() || !o_id.ok()) return {};
  auto ids = query(g, *t_id, *o_id);
  return ids.ok() ? *std::move(ids) : std::set<graph::NodeId>{};
}

/// Sorted union of `field` over the super-nodes `ids`.
std::vector<std::string> UnionOf(const std::vector<SummaryNode>& nodes,
                                 const std::set<graph::NodeId>& ids,
                                 std::vector<std::string> SummaryNode::*field) {
  std::set<std::string> out;
  for (graph::NodeId id : ids) {
    const std::vector<std::string>& values = nodes[id].*field;
    out.insert(values.begin(), values.end());
  }
  return std::vector<std::string>(out.begin(), out.end());
}

}  // namespace

Result<std::string> SummaryDag::NodeOf(
    const std::string& original_cluster) const {
  auto it = cluster_to_node_.find(original_cluster);
  if (it == cluster_to_node_.end()) {
    return Status::NotFound("cluster '" + original_cluster +
                            "' is not a node of the summarized DAG");
  }
  return it->second;
}

std::set<std::string> SummaryDag::ConfounderNodes() const {
  return graph_.NamesOf(EndpointQuery(graph_, exposure_node_, outcome_node_,
                                       &graph::Confounders));
}

std::set<std::string> SummaryDag::MediatorNodes() const {
  return graph_.NamesOf(EndpointQuery(graph_, exposure_node_, outcome_node_,
                                       &graph::Mediators));
}

std::vector<std::string> SummaryDag::TotalEffectAdjustmentClusters() const {
  return UnionOf(nodes_,
                 EndpointQuery(graph_, exposure_node_, outcome_node_,
                               &graph::Confounders),
                 &SummaryNode::members);
}

std::vector<std::string> SummaryDag::TotalEffectAdjustmentAttributes() const {
  return UnionOf(nodes_,
                 EndpointQuery(graph_, exposure_node_, outcome_node_,
                               &graph::Confounders),
                 &SummaryNode::attributes);
}

std::string SummaryDag::ToDot() const {
  graph::DotOptions options;
  options.graph_name = "summary";
  options.highlighted = {exposure_node_, outcome_node_};
  return graph::ToDot(graph_, options);
}

std::string SummaryDag::ToJson() const {
  std::string out;
  out.reserve(256 + 64 * nodes_.size());
  out += "{\"nodes\":[";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    AppendJsonString(nodes_[i].name, &out);
    out += ",\"members\":";
    AppendJsonStringArray(nodes_[i].members, &out);
    out += ",\"attributes\":";
    AppendJsonStringArray(nodes_[i].attributes, &out);
    out.push_back('}');
  }
  out += "],\"edges\":[";
  bool first = true;
  for (const auto& [from, to] : graph_.Edges()) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('[');
    AppendJsonString(graph_.NodeName(from), &out);
    out.push_back(',');
    AppendJsonString(graph_.NodeName(to), &out);
    out.push_back(']');
  }
  out += "],\"exposure\":";
  AppendJsonString(exposure_node_, &out);
  out += ",\"outcome\":";
  AppendJsonString(outcome_node_, &out);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"original_nodes\":%zu,\"original_edges\":%zu,"
                "\"pairs_scored\":%zu,\"pairs_changed\":%zu}",
                original_nodes_, original_edges_, pairs_scored_,
                pairs_changed_);
  out += buf;
  return out;
}

std::uint64_t SummaryDag::Fingerprint() const {
  Fnv1a h("cdi::summarize::SummaryFingerprint/v1");
  h.Mix(static_cast<std::uint64_t>(nodes_.size()));
  for (const SummaryNode& node : nodes_) {
    h.Mix(node.name);
    h.Mix(static_cast<std::uint64_t>(node.members.size()));
    for (const auto& m : node.members) h.Mix(m);
    h.Mix(static_cast<std::uint64_t>(node.attributes.size()));
    for (const auto& a : node.attributes) h.Mix(a);
  }
  const auto edges = graph_.Edges();
  h.Mix(static_cast<std::uint64_t>(edges.size()));
  for (const auto& [from, to] : edges) {
    h.Mix(graph_.NodeName(from)).Mix(graph_.NodeName(to));
  }
  h.Mix(exposure_node_).Mix(outcome_node_);
  h.Mix(static_cast<std::uint64_t>(original_nodes_))
      .Mix(static_cast<std::uint64_t>(original_edges_))
      .Mix(static_cast<std::uint64_t>(pairs_scored_))
      .Mix(static_cast<std::uint64_t>(pairs_changed_));
  return h.Digest();
}

}  // namespace cdi::summarize
