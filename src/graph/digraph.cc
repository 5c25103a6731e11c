#include "graph/digraph.h"

#include <algorithm>
#include <deque>

namespace cdi::graph {

Digraph::Digraph(const std::vector<std::string>& names) {
  for (const auto& n : names) {
    auto id = AddNode(n);
    CDI_CHECK(id.ok()) << id.status().ToString();
  }
}

Result<NodeId> Digraph::AddNode(const std::string& name) {
  if (ids_.count(name) > 0) {
    return Status::AlreadyExists("node '" + name + "' exists");
  }
  const NodeId id = names_.size();
  names_.push_back(name);
  ids_[name] = id;
  children_.emplace_back();
  parents_.emplace_back();
  return id;
}

Result<NodeId> Digraph::NodeIdOf(const std::string& name) const {
  auto it = ids_.find(name);
  if (it == ids_.end()) return Status::NotFound("no node '" + name + "'");
  return it->second;
}

bool Digraph::HasNode(const std::string& name) const {
  return ids_.count(name) > 0;
}

const std::string& Digraph::NodeName(NodeId id) const {
  CDI_CHECK(id < names_.size());
  return names_[id];
}

std::set<std::string> Digraph::NamesOf(const std::set<NodeId>& ids) const {
  std::set<std::string> out;
  for (NodeId id : ids) out.insert(NodeName(id));
  return out;
}

Status Digraph::AddEdge(NodeId from, NodeId to) {
  if (from >= names_.size() || to >= names_.size()) {
    return Status::OutOfRange("node id out of range");
  }
  if (from == to) return Status::InvalidArgument("self loop rejected");
  if (children_[from].insert(to).second) {
    parents_[to].insert(from);
    ++num_edges_;
  }
  return Status::OK();
}

Status Digraph::AddEdge(const std::string& from, const std::string& to) {
  CDI_ASSIGN_OR_RETURN(NodeId f, NodeIdOf(from));
  CDI_ASSIGN_OR_RETURN(NodeId t, NodeIdOf(to));
  return AddEdge(f, t);
}

void Digraph::RemoveEdge(NodeId from, NodeId to) {
  if (from >= names_.size() || to >= names_.size()) return;
  if (children_[from].erase(to) > 0) {
    parents_[to].erase(from);
    --num_edges_;
  }
}

bool Digraph::HasEdge(NodeId from, NodeId to) const {
  return from < names_.size() && children_[from].count(to) > 0;
}

bool Digraph::HasEdge(const std::string& from, const std::string& to) const {
  auto f = NodeIdOf(from);
  auto t = NodeIdOf(to);
  return f.ok() && t.ok() && HasEdge(*f, *t);
}

std::vector<Edge> Digraph::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < names_.size(); ++u) {
    for (NodeId v : children_[u]) out.emplace_back(u, v);
  }
  return out;
}

bool Digraph::IsAcyclic() const { return TopologicalOrder().ok(); }

Result<std::vector<NodeId>> Digraph::TopologicalOrder() const {
  std::vector<std::size_t> indeg(names_.size());
  for (NodeId u = 0; u < names_.size(); ++u) indeg[u] = parents_[u].size();
  std::deque<NodeId> ready;
  for (NodeId u = 0; u < names_.size(); ++u) {
    if (indeg[u] == 0) ready.push_back(u);
  }
  std::vector<NodeId> order;
  order.reserve(names_.size());
  while (!ready.empty()) {
    const NodeId u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (NodeId v : children_[u]) {
      if (--indeg[v] == 0) ready.push_back(v);
    }
  }
  if (order.size() != names_.size()) {
    return Status::FailedPrecondition("graph has a cycle");
  }
  return order;
}

std::set<NodeId> Digraph::Descendants(NodeId start) const {
  std::set<NodeId> seen;
  std::deque<NodeId> frontier{start};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : children_[u]) {
      if (seen.insert(v).second) frontier.push_back(v);
    }
  }
  return seen;
}

std::set<NodeId> Digraph::Ancestors(NodeId start) const {
  std::set<NodeId> seen;
  std::deque<NodeId> frontier{start};
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (NodeId v : parents_[u]) {
      if (seen.insert(v).second) frontier.push_back(v);
    }
  }
  return seen;
}

bool Digraph::HasDirectedPath(NodeId from, NodeId to) const {
  return Descendants(from).count(to) > 0;
}

std::set<NodeId> Digraph::NodesOnDirectedPaths(NodeId from, NodeId to) const {
  std::set<NodeId> out;
  const auto desc = Descendants(from);
  const auto anc = Ancestors(to);
  for (NodeId v : desc) {
    if (v != from && v != to && anc.count(v) > 0) out.insert(v);
  }
  return out;
}

std::vector<Edge> Digraph::TwoCycles() const {
  std::vector<Edge> out;
  for (NodeId u = 0; u < names_.size(); ++u) {
    for (NodeId v : children_[u]) {
      if (u < v && children_[v].count(u) > 0) out.emplace_back(u, v);
    }
  }
  return out;
}

bool operator==(const Digraph& a, const Digraph& b) {
  return a.names_ == b.names_ && a.children_ == b.children_;
}

}  // namespace cdi::graph
