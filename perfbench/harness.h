// Inputs, references and client-side plumbing shared by the workloads.
//
// Everything a workload sends is generated here before any timing starts:
// the scenarios (with their held-back row batches), the request lines, and
// the reference payload every served answer must equal byte for byte. The
// server only ever receives the generated inputs. Scenario data is fixed;
// the run seed picks the requests and their order.
#ifndef CDI_PERFBENCH_HARNESS_H_
#define CDI_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "datagen/scenario.h"
#include "samples.h"
#include "serve/query_server.h"
#include "serve/scenario_registry.h"
#include "trace.h"

namespace perfbench {

/// Which scenario family to generate.
struct ScenarioSource {
  std::string name;         // registered name; "covid", "flights" or a grid cell
  std::size_t entities = 0;
  /// Rows held back as update batches (batches x batch_rows), for the
  /// scenarios the ingest workload appends to.
  std::size_t batches = 0;
  std::size_t batch_rows = 0;
};

/// A generated scenario plus what the server needs to register it.
struct ScenarioInput {
  std::string name;
  /// What the registration builder returns: for churned scenarios the
  /// scenario's input table is the head, without the held-back rows.
  std::shared_ptr<const cdi::datagen::Scenario> scenario;
  std::vector<cdi::table::Table> batches;
  /// The bundle's default pipeline options and numeric attributes, as
  /// the registry derives them.
  cdi::core::PipelineOptions options;
  std::vector<std::string> numeric;
  /// Per phase (phase e = head + the first e batches): the table, and the
  /// fingerprint of the canonical-pair pipeline result.
  std::vector<std::shared_ptr<const cdi::table::Table>> phase_tables;
  std::vector<std::uint64_t> canonical_fingerprint;

  std::size_t phases() const { return batches.size() + 1; }
  cdi::serve::QueryServer::ScenarioBuilder Builder() const;
};

/// Generates a scenario. Its data depends only on the source (name and
/// size), so every run serves the same datasets.
cdi::Result<ScenarioInput> MakeScenario(const ScenarioSource& source);

/// One request a workload can send.
struct Entry {
  std::size_t scenario = 0;  // index into the workload's scenarios
  cdi::serve::QueryMode mode = cdi::serve::QueryMode::kPlanned;
  std::string exposure;
  std::string outcome;
  std::size_t k = 0;
  std::string format;
  std::string line;  // the protocol line sent
  /// The reference payload, per phase of the scenario.
  std::vector<std::string> expected;
};

/// What to put in the mix for one scenario.
struct MixSpec {
  /// Planned pairs: every ordered pair of numeric attributes (all = true)
  /// or one seeded pair.
  bool all_planned_pairs = true;
  /// Full-mode pairs: the canonical pair, plus `extra_full_pairs` seeded
  /// other ordered pairs.
  bool full_canonical = true;
  std::size_t extra_full_pairs = 0;
  /// Summaries: every achievable k in both formats, or the smallest
  /// achievable k in a seeded format.
  bool all_summaries = true;
};

/// Builds the scenario's entries and their reference payloads: planned
/// answers from a fresh canonical Pipeline::Run + CdagPlan::AnswerPair,
/// full answers from a direct Pipeline::Run of the pair, summaries from
/// SummarizeClusterDag on the canonical C-DAG — one reference per phase.
/// Entries whose reference is an error in any phase are left out, so no
/// operation of the workload is expected to fail. Entries are ordered
/// planned, summarize, full; the first is always a planned pair.
cdi::Result<std::vector<Entry>> BuildEntries(std::size_t index,
                                             ScenarioInput* input,
                                             const MixSpec& spec,
                                             std::uint64_t seed);

/// One request's round trip through the line protocol, as cdi_serve does
/// it: ParseCommandLine -> Submit -> wait -> FormatResponseLine.
struct Reply {
  cdi::serve::QueryResponse response;
  std::string line;
  Clock::time_point start;  // before parsing
  Clock::time_point end;    // after formatting
  double micros() const { return Seconds(start, end) * 1e6; }
};
Reply RoundTrip(cdi::serve::QueryServer* server, const std::string& line,
                Tracer* tracer);

/// The payload part of a formatted OK response line (between the source
/// tag and the latency tail); empty for error lines.
std::string_view PayloadOf(const std::string& line);

/// A server over its own registry (declared first, so it outlives the
/// server).
struct ServerHandle {
  explicit ServerHandle(int workers);
  std::unique_ptr<cdi::serve::ScenarioRegistry> registry;
  std::unique_ptr<cdi::serve::QueryServer> server;
};

/// RegisterScenario through the server, timed. `builder_seconds` is the
/// time spent inside the builder callback (excluded from the registry
/// layer's time).
struct WriteTiming {
  cdi::Result<std::shared_ptr<const cdi::serve::ScenarioBundle>> bundle =
      cdi::Status::Internal("not run");
  double call_seconds = 0.0;
  double builder_seconds = 0.0;
};
WriteTiming Register(cdi::serve::QueryServer* server,
                     const ScenarioInput& input, bool replace,
                     Tracer* tracer);

/// Core-layer replay of one cold operation: the pipeline stages called
/// one by one through their public entry points (KnowledgeExtractor,
/// DataOrganizer, CdagBuilder, EstimateEffect), then CdagPlan::Build,
/// AnswerPair for each planned entry and SummarizeClusterDag for each
/// summary entry, each in its own span. A separate FindApproximateFds
/// call on the organized table measures the organizer's FD scan.
struct ReplayStats {
  Samples fd_scan_ms;
  Samples fd_scan_share;  // FD scan time over organize time
  Samples kg_calls, lake_calls, oracle_calls, columns_kept_ratio, ci_tests;
  Samples pairs_scored;
  std::uint64_t replays = 0;
  std::uint64_t mismatches = 0;
};
struct ReplayOutput {
  std::shared_ptr<const cdi::core::PipelineResult> result;
  double extract_seconds = 0.0;
  double organize_seconds = 0.0;
  double build_seconds = 0.0;
};
/// Replays `input` at `phase` and checks every replayed payload against
/// `entries` (those of this scenario) and the canonical fingerprint.
ReplayOutput Replay(const ScenarioInput& input, std::size_t phase,
                    const std::vector<const Entry*>& entries, Tracer* tracer,
                    ReplayStats* stats);

}  // namespace perfbench

#endif  // CDI_PERFBENCH_HARNESS_H_
