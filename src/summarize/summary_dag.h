#ifndef CDI_SUMMARIZE_SUMMARY_DAG_H_
#define CDI_SUMMARIZE_SUMMARY_DAG_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/digraph.h"

namespace cdi::summarize {

/// Tuning knobs for the greedy CaGreS-style node-merge pass.
struct SummarizeOptions {
  /// Target node count k. The pass contracts node pairs until the graph
  /// has at most `budget` nodes. Must be >= 2 and <= the DAG's node
  /// count; exposure and outcome nodes are never merged.
  std::size_t budget = 0;
  /// Cap on the d-separation scoring pair set. When the DAG has more
  /// than `max_pairs` unordered node pairs, a canonical seeded subsample
  /// of this size is scored instead — the seed is derived from the node
  /// names, so the sample (and therefore the summary) is a pure function
  /// of the input.
  std::size_t max_pairs = 64;
};

/// One super-node of a summary: a set of original clusters merged into a
/// single node, with provenance back to the original cluster names and
/// their member attributes.
struct SummaryNode {
  /// Canonical name: the sorted original cluster names joined by '+'.
  std::string name;
  /// Original cluster names absorbed into this super-node, sorted.
  std::vector<std::string> members;
  /// Union of the member clusters' attributes, sorted.
  std::vector<std::string> attributes;
};

/// A k-node summary of a causal DAG (CaGreS-style, after "Summarized
/// Causal Explanations" / the Causal DAG Summarization follow-up to the
/// source paper): super-nodes are merged clusters, edges are the
/// contractions of the original edges, exposure and outcome survive as
/// singleton super-nodes, and the graph is acyclic by construction.
///
/// The artifact is immutable once built and fully deterministic: the
/// same input DAG and options always produce byte-identical ToDot() and
/// ToJson() renderings, regardless of thread count or call site — the
/// merge pass is single-threaded with a canonical candidate order and a
/// stable (loss, degree, name) tie-break.
class SummaryDag {
 public:
  SummaryDag() = default;

  /// Summary graph over super-node names (node order is sorted by name —
  /// canonical regardless of merge order).
  const graph::Digraph& graph() const { return graph_; }

  /// Super-nodes, index-aligned with graph() node ids.
  const std::vector<SummaryNode>& nodes() const { return nodes_; }

  /// Names of the super-nodes holding the exposure / outcome cluster
  /// (always the original cluster names: both are unmergeable).
  const std::string& exposure_node() const { return exposure_node_; }
  const std::string& outcome_node() const { return outcome_node_; }

  std::size_t num_nodes() const { return graph_.num_nodes(); }
  std::size_t num_edges() const { return graph_.num_edges(); }

  /// Size of the DAG the summary was built from.
  std::size_t original_nodes() const { return original_nodes_; }
  std::size_t original_edges() const { return original_edges_; }

  /// Number of node pairs in the d-separation scoring sample.
  std::size_t pairs_scored() const { return pairs_scored_; }
  /// Cumulative semantic loss: d-separation verdicts (empty conditioning
  /// set) flipped by the contractions that were actually applied.
  std::size_t pairs_changed() const { return pairs_changed_; }

  /// original_nodes / num_nodes (1.0 for the identity summary).
  double CompressionRatio() const {
    return graph_.num_nodes() == 0
               ? 1.0
               : static_cast<double>(original_nodes_) /
                     static_cast<double>(graph_.num_nodes());
  }

  /// The super-node an original cluster was merged into. kNotFound when
  /// the cluster was not a node of the summarized DAG.
  Result<std::string> NodeOf(const std::string& original_cluster) const;

  /// graph::Confounders of the exposure and outcome nodes in the summary
  /// graph — the summary-level confounders.
  std::set<std::string> ConfounderNodes() const;
  /// graph::Mediators: super-nodes on a directed exposure -> outcome path
  /// in the summary.
  std::set<std::string> MediatorNodes() const;

  /// Original cluster names inside the confounder super-nodes, sorted —
  /// the backdoor adjustment set *read off the summary* instead of the
  /// full DAG (the quantity whose bias the k-sweep in bench_ablation
  /// measures).
  std::vector<std::string> TotalEffectAdjustmentClusters() const;
  /// Member attributes of those clusters, sorted.
  std::vector<std::string> TotalEffectAdjustmentAttributes() const;

  /// Graphviz rendering (graph/dot) with exposure/outcome highlighted.
  /// Deterministic byte-for-byte.
  std::string ToDot() const;

  /// Compact single-line JSON rendering: nodes (with member/attribute
  /// provenance), edges, exposure/outcome, original sizes, loss stats.
  /// Deterministic byte-for-byte.
  std::string ToJson() const;

  /// Canonical 64-bit fingerprint over the full artifact (nodes, members,
  /// attributes, edges, endpoints, sizes, loss stats). Two summaries
  /// fingerprint equal iff they render identically.
  std::uint64_t Fingerprint() const;

 private:
  friend class SummaryAssembler;

  graph::Digraph graph_;
  std::vector<SummaryNode> nodes_;
  std::map<std::string, std::string> cluster_to_node_;
  std::string exposure_node_;
  std::string outcome_node_;
  std::size_t original_nodes_ = 0;
  std::size_t original_edges_ = 0;
  std::size_t pairs_scored_ = 0;
  std::size_t pairs_changed_ = 0;
};

}  // namespace cdi::summarize

#endif  // CDI_SUMMARIZE_SUMMARY_DAG_H_
