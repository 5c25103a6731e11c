#ifndef CDI_CORE_CDAG_H_
#define CDI_CORE_CDAG_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/digraph.h"

namespace cdi::core {

/// A cluster causal DAG (C-DAG, Anand et al. 2022): nodes are *clusters of
/// attributes* and edges are causal relationships between clusters. The
/// exposure and outcome are always singleton clusters, so cluster-level
/// identification (mediators, backdoor sets) answers the attribute-level
/// causal question.
class ClusterDag {
 public:
  ClusterDag() = default;

  /// Builds a C-DAG skeleton with the given clusters (no edges yet).
  /// Cluster names must be unique and non-empty; `exposure` / `outcome`
  /// must name singleton clusters present in `members`.
  static Result<ClusterDag> Create(
      const std::map<std::string, std::vector<std::string>>& members,
      const std::string& exposure_cluster, const std::string& outcome_cluster);

  /// Underlying directed graph over cluster names. May briefly hold cycles
  /// while a builder repairs oracle output; IsAcyclic() reports the state.
  graph::Digraph& mutable_graph() { return graph_; }
  const graph::Digraph& graph() const { return graph_; }

  const std::map<std::string, std::vector<std::string>>& members() const {
    return members_;
  }

  /// Member attributes of one cluster.
  Result<std::vector<std::string>> MembersOf(const std::string& cluster) const;

  /// The cluster containing an attribute.
  Result<std::string> ClusterOf(const std::string& attribute) const;

  const std::string& exposure_cluster() const { return exposure_cluster_; }
  const std::string& outcome_cluster() const { return outcome_cluster_; }

  /// The exposure/outcome *attributes* (sole members of their clusters).
  const std::string& exposure_attribute() const { return exposure_attribute_; }
  const std::string& outcome_attribute() const { return outcome_attribute_; }

  std::size_t num_clusters() const { return graph_.num_nodes(); }
  std::size_t num_edges() const { return graph_.num_edges(); }

  /// The exposure -> outcome forms of the *Between / *AdjustmentFor
  /// queries below (empty on error, e.g. a default-constructed C-DAG).
  /// Mediator clusters: on a directed path exposure -> ... -> outcome.
  std::set<std::string> MediatorClusters() const;
  /// Confounder clusters: common ancestors of exposure and outcome.
  std::set<std::string> ConfounderClusters() const;
  /// Attributes of all mediator clusters plus all confounder clusters —
  /// the adjustment set CATER hands to the direct-effect estimator.
  std::vector<std::string> DirectEffectAdjustmentAttributes() const;
  /// Attributes of a valid backdoor set for the *total* effect (confounder
  /// clusters).
  std::vector<std::string> TotalEffectAdjustmentAttributes() const;

  /// Multi-query support (one of §3.3's open questions: "whether a single
  /// C-DAG is sufficient to identify the adjustment sets for multiple
  /// cause-effect estimations"): graph::Mediators / graph::Confounders
  /// between *any* ordered pair of clusters, not just the exposure and
  /// outcome the C-DAG was built for. Pure reachability, so they work on
  /// cyclic claim graphs too.
  Result<std::set<std::string>> MediatorClustersBetween(
      const std::string& from, const std::string& to) const;
  Result<std::set<std::string>> ConfounderClustersBetween(
      const std::string& from, const std::string& to) const;
  /// Member attributes of the confounder clusters of (from, to) — a
  /// backdoor adjustment set for that pair's total effect.
  Result<std::vector<std::string>> TotalEffectAdjustmentFor(
      const std::string& from, const std::string& to) const;
  /// Member attributes of mediators + confounders of (from, to) — the
  /// adjustment set for that pair's controlled direct effect.
  Result<std::vector<std::string>> DirectEffectAdjustmentFor(
      const std::string& from, const std::string& to) const;

 private:
  /// Member attributes of `clusters`, sorted.
  std::vector<std::string> MemberAttributes(
      const std::set<std::string>& clusters) const;

  graph::Digraph graph_;
  std::map<std::string, std::vector<std::string>> members_;
  std::map<std::string, std::string> attr_to_cluster_;
  std::string exposure_cluster_;
  std::string outcome_cluster_;
  std::string exposure_attribute_;
  std::string outcome_attribute_;
};

}  // namespace cdi::core

#endif  // CDI_CORE_CDAG_H_
