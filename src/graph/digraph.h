#ifndef CDI_GRAPH_DIGRAPH_H_
#define CDI_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace cdi::graph {

/// Node handle (dense index into a Digraph).
using NodeId = std::size_t;

/// A directed edge (from, to).
using Edge = std::pair<NodeId, NodeId>;

/// Directed graph over named nodes. Cycles are allowed — several CDI
/// components (notably the simulated GPT-3 oracle) produce cyclic graphs;
/// algorithms that require acyclicity check `IsAcyclic()` and return an
/// error otherwise. Causal DAGs are Digraphs that happen to be acyclic.
class Digraph {
 public:
  Digraph() = default;

  /// Builds a graph with the given node names (must be distinct).
  explicit Digraph(const std::vector<std::string>& names);

  /// Adds a node; returns its id. Fails if the name exists.
  Result<NodeId> AddNode(const std::string& name);

  /// Id of a named node.
  Result<NodeId> NodeIdOf(const std::string& name) const;

  bool HasNode(const std::string& name) const;

  const std::string& NodeName(NodeId id) const;

  /// Names of `ids`, as a sorted set.
  std::set<std::string> NamesOf(const std::set<NodeId>& ids) const;

  std::size_t num_nodes() const { return names_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  /// Adds edge from -> to. Self-loops are rejected; duplicate edges are
  /// no-ops.
  Status AddEdge(NodeId from, NodeId to);
  Status AddEdge(const std::string& from, const std::string& to);

  /// Removes an edge if present.
  void RemoveEdge(NodeId from, NodeId to);

  bool HasEdge(NodeId from, NodeId to) const;
  bool HasEdge(const std::string& from, const std::string& to) const;

  const std::set<NodeId>& Children(NodeId id) const { return children_[id]; }
  const std::set<NodeId>& Parents(NodeId id) const { return parents_[id]; }

  /// True if u->v or v->u.
  bool Adjacent(NodeId u, NodeId v) const {
    return HasEdge(u, v) || HasEdge(v, u);
  }

  /// All edges in deterministic (from, to) order.
  std::vector<Edge> Edges() const;

  /// All node names, by id.
  const std::vector<std::string>& NodeNames() const { return names_; }

  bool IsAcyclic() const;

  /// Topological order; fails when the graph has a cycle.
  Result<std::vector<NodeId>> TopologicalOrder() const;

  /// Nodes reachable from `start` via directed edges (excluding `start`
  /// itself unless it lies on a cycle through itself — impossible here).
  std::set<NodeId> Descendants(NodeId start) const;

  /// Nodes that reach `start` via directed edges.
  std::set<NodeId> Ancestors(NodeId start) const;

  /// True if a directed path from `from` to `to` exists.
  bool HasDirectedPath(NodeId from, NodeId to) const;

  /// Nodes lying strictly between `from` and `to` on at least one directed
  /// path (i.e. descendants of `from` that are ancestors of `to`).
  std::set<NodeId> NodesOnDirectedPaths(NodeId from, NodeId to) const;

  /// All directed 2-cycles (u, v) with u < v and both edges present.
  std::vector<Edge> TwoCycles() const;

  /// Deep equality of node names and edges.
  friend bool operator==(const Digraph& a, const Digraph& b);

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> ids_;
  std::vector<std::set<NodeId>> children_;
  std::vector<std::set<NodeId>> parents_;
  std::size_t num_edges_ = 0;
};

}  // namespace cdi::graph

#endif  // CDI_GRAPH_DIGRAPH_H_
