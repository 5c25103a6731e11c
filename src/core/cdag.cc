#include "core/cdag.h"

#include <algorithm>

#include "graph/adjustment.h"

namespace cdi::core {

Result<ClusterDag> ClusterDag::Create(
    const std::map<std::string, std::vector<std::string>>& members,
    const std::string& exposure_cluster, const std::string& outcome_cluster) {
  ClusterDag out;
  for (const auto& [name, attrs] : members) {
    if (name.empty()) return Status::InvalidArgument("empty cluster name");
    if (attrs.empty()) {
      return Status::InvalidArgument("cluster '" + name + "' has no members");
    }
    CDI_ASSIGN_OR_RETURN(graph::NodeId id, out.graph_.AddNode(name));
    (void)id;
    for (const auto& a : attrs) {
      if (!out.attr_to_cluster_.emplace(a, name).second) {
        return Status::InvalidArgument("attribute '" + a +
                                       "' in multiple clusters");
      }
    }
  }
  auto check_singleton = [&](const std::string& c) -> Status {
    auto it = members.find(c);
    if (it == members.end()) {
      return Status::InvalidArgument("no cluster '" + c + "'");
    }
    if (it->second.size() != 1) {
      return Status::InvalidArgument("cluster '" + c +
                                     "' must be a singleton");
    }
    return Status::OK();
  };
  CDI_RETURN_IF_ERROR(check_singleton(exposure_cluster));
  CDI_RETURN_IF_ERROR(check_singleton(outcome_cluster));
  out.members_ = members;
  out.exposure_cluster_ = exposure_cluster;
  out.outcome_cluster_ = outcome_cluster;
  out.exposure_attribute_ = members.at(exposure_cluster)[0];
  out.outcome_attribute_ = members.at(outcome_cluster)[0];
  return out;
}

Result<std::vector<std::string>> ClusterDag::MembersOf(
    const std::string& cluster) const {
  auto it = members_.find(cluster);
  if (it == members_.end()) {
    return Status::NotFound("no cluster '" + cluster + "'");
  }
  return it->second;
}

Result<std::string> ClusterDag::ClusterOf(const std::string& attribute) const {
  auto it = attr_to_cluster_.find(attribute);
  if (it == attr_to_cluster_.end()) {
    return Status::NotFound("no attribute '" + attribute + "'");
  }
  return it->second;
}

std::vector<std::string> ClusterDag::MemberAttributes(
    const std::set<std::string>& clusters) const {
  std::vector<std::string> out;
  for (const auto& c : clusters) {
    auto it = members_.find(c);
    if (it == members_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::set<std::string> ClusterDag::MediatorClusters() const {
  auto r = MediatorClustersBetween(exposure_cluster_, outcome_cluster_);
  return r.ok() ? *r : std::set<std::string>{};
}

std::set<std::string> ClusterDag::ConfounderClusters() const {
  auto r = ConfounderClustersBetween(exposure_cluster_, outcome_cluster_);
  return r.ok() ? *r : std::set<std::string>{};
}

std::vector<std::string> ClusterDag::DirectEffectAdjustmentAttributes() const {
  auto r = DirectEffectAdjustmentFor(exposure_cluster_, outcome_cluster_);
  return r.ok() ? *r : std::vector<std::string>{};
}

std::vector<std::string> ClusterDag::TotalEffectAdjustmentAttributes() const {
  auto r = TotalEffectAdjustmentFor(exposure_cluster_, outcome_cluster_);
  return r.ok() ? *r : std::vector<std::string>{};
}

Result<std::set<std::string>> ClusterDag::MediatorClustersBetween(
    const std::string& from, const std::string& to) const {
  CDI_ASSIGN_OR_RETURN(graph::NodeId t, graph_.NodeIdOf(from));
  CDI_ASSIGN_OR_RETURN(graph::NodeId o, graph_.NodeIdOf(to));
  CDI_ASSIGN_OR_RETURN(auto ids, graph::Mediators(graph_, t, o));
  return graph_.NamesOf(ids);
}

Result<std::set<std::string>> ClusterDag::ConfounderClustersBetween(
    const std::string& from, const std::string& to) const {
  CDI_ASSIGN_OR_RETURN(graph::NodeId t, graph_.NodeIdOf(from));
  CDI_ASSIGN_OR_RETURN(graph::NodeId o, graph_.NodeIdOf(to));
  CDI_ASSIGN_OR_RETURN(auto ids, graph::Confounders(graph_, t, o));
  return graph_.NamesOf(ids);
}

Result<std::vector<std::string>> ClusterDag::TotalEffectAdjustmentFor(
    const std::string& from, const std::string& to) const {
  CDI_ASSIGN_OR_RETURN(auto clusters, ConfounderClustersBetween(from, to));
  return MemberAttributes(clusters);
}

Result<std::vector<std::string>> ClusterDag::DirectEffectAdjustmentFor(
    const std::string& from, const std::string& to) const {
  CDI_ASSIGN_OR_RETURN(auto clusters, MediatorClustersBetween(from, to));
  CDI_ASSIGN_OR_RETURN(auto conf, ConfounderClustersBetween(from, to));
  clusters.insert(conf.begin(), conf.end());
  return MemberAttributes(clusters);
}

}  // namespace cdi::core
