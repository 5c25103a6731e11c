#ifndef CDI_SUMMARIZE_SUMMARIZE_H_
#define CDI_SUMMARIZE_SUMMARIZE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cdag.h"
#include "graph/digraph.h"
#include "summarize/summary_dag.h"

namespace cdi::summarize {

/// Greedy CaGreS-style summarization of a causal DAG down to
/// `options.budget` nodes.
///
/// Each round scores every legal candidate pair (nodes that are adjacent
/// or share a parent or a child; if none exists, any unprotected pair)
/// by *semantic loss*: the number of marginal d-separation verdicts
/// (empty conditioning set, graph::DSeparated) that flip on a canonical
/// sampled pair set when the two nodes are contracted. The pair with
/// minimal (loss, merged-degree, lexicographic name) is contracted;
/// contractions that would create a cycle are illegal, and the exposure
/// and outcome nodes are never merged. The pass is single-threaded with
/// a total candidate order, so the output is a pure function of
/// (dag, members, exposure, outcome, options) — byte-identical across
/// thread counts and call sites.
///
/// `members` maps a node name to the attributes it represents (a C-DAG's
/// cluster members); names absent from the map represent themselves
/// (full-attribute DAGs pass an empty map).
///
/// Errors:
///  - kInvalidArgument: budget < 2, budget exceeds the DAG's node count
///    (message names the DAG size), unknown exposure/outcome, or
///    exposure == outcome.
///  - kFailedPrecondition: the DAG is cyclic, or no legal contraction
///    remains above the budget (the budget is below the DAG's safe
///    floor — e.g. every remaining pair is protected or would create a
///    cycle).
Result<SummaryDag> Summarize(
    const graph::Digraph& dag,
    const std::map<std::string, std::vector<std::string>>& members,
    const std::string& exposure, const std::string& outcome,
    const SummarizeOptions& options);

/// Summarizes a built C-DAG: nodes are its clusters (with member
/// attributes as provenance), exposure/outcome its exposure/outcome
/// clusters.
Result<SummaryDag> SummarizeClusterDag(const core::ClusterDag& cdag,
                                       const SummarizeOptions& options);

}  // namespace cdi::summarize

#endif  // CDI_SUMMARIZE_SUMMARIZE_H_
