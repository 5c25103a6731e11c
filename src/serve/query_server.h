#ifndef CDI_SERVE_QUERY_SERVER_H_
#define CDI_SERVE_QUERY_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "serve/metrics.h"
#include "serve/scenario_registry.h"
#include "serve/single_flight.h"
#include "summarize/summarize.h"

namespace cdi::serve {

/// How a query wants its answer computed.
enum class QueryMode {
  /// Run the full pipeline for this exact (exposure, outcome) pair — the
  /// pair-exact path; every stage (extraction, organization, discovery)
  /// is conditioned on the pair.
  kFull,
  /// Answer from the scenario's cached C-DAG plan: one artifact per
  /// (scenario, epoch) built under single-flight, every pair served off
  /// it by the ClusterDag multi-query API + sufficient-statistics effect
  /// estimates — microseconds of linear algebra instead of a pipeline
  /// run.
  kPlanned,
  /// Summarize the scenario's C-DAG to a node budget (CaGreS-style
  /// greedy merge): the scenario's cached plan artifact supplies the
  /// C-DAG, the summary is rendered to DOT *and* JSON payloads once, and
  /// the payloads are cached per (scenario, epoch, k, options) under the
  /// same single-flight + epoch-eviction contract as results.
  kSummarize,
};

/// A summary with both of its renderings: the input of SummaryFingerprint
/// and FormatSummaryPayload. The server builds one per summarize miss,
/// renders both payloads (RenderedAnswer) from it and drops it; only the
/// payloads are cached, so the format stays out of the cache key.
struct SummaryArtifact {
  std::shared_ptr<const summarize::SummaryDag> summary;
  std::string dot;
  std::string json;
};

/// The response-line payload of one answer: the bytes between
/// `source=<x> ` and ` latency_us=`, fingerprint included. Rendered once,
/// when the answer is computed, and shared immutable by every executed,
/// coalesced and hit response that serves the answer. It is all a
/// result-tier entry keeps.
struct RenderedAnswer {
  /// The full or planned payload, or a summary's `format=dot` payload.
  std::string payload;
  /// A summary's `format=json` payload; empty for full and planned
  /// answers. Both summary payloads are kept because the format is
  /// presentation only and stays out of the cache key.
  std::string json_payload;
};

/// One causal query against a registered scenario: "what is the effect of
/// `exposure` on `outcome`?" — the repeated analyst question the serving
/// layer amortizes ingest and statistics across.
struct CdiQuery {
  std::string scenario;
  /// Exposure/outcome attributes; empty (and ignored) for
  /// QueryMode::kSummarize, which always summarizes the scenario's
  /// canonical C-DAG.
  std::string exposure;
  std::string outcome;
  QueryMode mode = QueryMode::kFull;
  /// kSummarize: the node budget k (>= 2; validated against the built
  /// C-DAG's node count at execution). Part of the cache key.
  std::size_t summarize_k = 0;
  /// kSummarize: which rendering a response line prints ("dot" or
  /// "json"). Presentation only — not part of the cache key; both
  /// renderings are built and cached together.
  std::string summarize_format = "dot";
  /// Pipeline options override; unset = the bundle's default options.
  /// Only *semantic* fields contribute to the cache key (see
  /// core::PipelineOptionsFingerprint).
  std::optional<core::PipelineOptions> options;
  /// Relative deadline in seconds from submission (covers queueing AND
  /// execution); <= 0, NaN, or too long for the clock to represent
  /// (~292 years and up, +inf) means no deadline.
  double timeout_seconds = 0.0;
};

/// How a response was produced.
enum class ResponseSource {
  kError,     ///< no result (rejected, invalid, deadline, cancelled, ...)
  kExecuted,  ///< this request ran the pipeline (cache-miss leader)
  kCacheHit,  ///< served from a completed cache entry
  kCoalesced  ///< waited on an identical in-flight computation
};

struct QueryResponse {
  Status status;
  /// The full-pipeline result this response's answer was rendered from:
  /// set only on executed and coalesced QueryMode::kFull responses, which
  /// share the leader's pointer. Null on hits, on planned and summarize
  /// responses and on error. The server never retains it, so it lives as
  /// long as the responses holding it.
  std::shared_ptr<const core::PipelineResult> result;
  /// The answer's rendered payload; set on every OK response and null on
  /// error. The executed, coalesced and hit responses of one cache entry
  /// share the same pointer.
  std::shared_ptr<const RenderedAnswer> rendering;
  ResponseSource source = ResponseSource::kError;
  /// Single-flight cache key: hash of (scenario epoch, T, O, options
  /// fingerprint). 0 when the request failed before key computation.
  std::uint64_t cache_key = 0;
  std::uint64_t scenario_epoch = 0;
  double latency_seconds = 0.0;
};

struct QueryServerOptions {
  /// Worker threads executing pipeline runs.
  int num_workers = 4;
  /// Bound on queued-but-not-started requests. A request that would
  /// exceed it is rejected immediately with kResourceExhausted — explicit
  /// load shedding instead of unbounded memory growth. Cache hits and
  /// coalesced requests never occupy a slot.
  std::size_t max_queue_depth = 64;
  /// `num_threads` handed to each pipeline run (results are
  /// bitwise-identical at any value, so this is pure latency tuning).
  int pipeline_threads = 1;
  /// Test hook: runs on the worker once per executed request — before a
  /// full-mode pipeline run; for planned and summarize requests, once the
  /// request has joined its scenario's plan flight, so a test can hold a
  /// plan build while others follow it. Not for production.
  std::function<void()> pre_execute_hook;
};

/// Concurrent query-serving layer over a ScenarioRegistry.
///
/// Requests flow: admission (resolve scenario snapshot, validate the
/// query against the bundle's shared sufficient statistics, consult the
/// result cache) -> bounded FIFO queue -> worker pool -> pipeline run
/// with a per-request CancelToken -> response.
///
/// Compute-once is one primitive, SingleFlightCache, under three tiers:
///  - results, per QueryCacheKey: claimed pending at admission, so an
///    identical query arriving while the first is queued or running
///    follows it instead of enqueueing a duplicate; done entries serve
///    later identical queries at submit time. A done entry is the
///    answer's RenderedAnswer and nothing else: the answer object it was
///    rendered from reaches only the leader's response and its followers'.
///  - plans: one C-DAG artifact per (scenario, epoch, options), built by
///    the first planned or summarize request and shared by every later
///    pair and summary. Followers block their worker on the build until
///    their own deadlines.
///  - registrations, per name: one scenario build; nothing is retained,
///    because the registry holds published bundles.
/// Failures (errors, deadlines) reach every follower and are never
/// retained. Results and plans are tagged (scenario, epoch): the first
/// touch under a newer epoch evicts the scenario's older done entries,
/// and a computation finishing after its epoch was superseded is not
/// retained, so churn keeps both tiers bounded.
///
/// Every pipeline stage is bitwise-deterministic, so a served result is
/// bitwise-identical to a direct Pipeline::Run of the same query
/// regardless of worker count, cache state, or coalescing.
class QueryServer {
 public:
  /// Builds (or loads) a scenario for RegisterScenario. Runs on the
  /// calling thread, outside every server lock; may be arbitrarily
  /// expensive (grid materialization, CSV ingest). A std::bad_alloc it
  /// throws fails the registration with kResourceExhausted.
  using ScenarioBuilder =
      std::function<Result<std::shared_ptr<const datagen::Scenario>>()>;

  /// `registry` is borrowed and must outlive the server. Non-const:
  /// UpdateScenario publishes new epochs through it. The server installs
  /// itself as the registry's eviction listener (cleared again on
  /// Shutdown), so a registry serves at most one QueryServer at a time.
  QueryServer(ScenarioRegistry* registry,
              QueryServerOptions options = QueryServerOptions());

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Shuts down (drains nothing: queued requests fail with kCancelled).
  ~QueryServer();

  /// Admits `query` and returns a future for its response. Never blocks
  /// on pipeline work; admission rejections (unknown scenario, invalid
  /// query, queue full) come back as already-satisfied futures carrying
  /// the non-OK status.
  std::future<QueryResponse> Submit(CdiQuery query);

  /// Submit + wait (the convenience used by tests and tools).
  QueryResponse Execute(CdiQuery query);

  /// Streaming row ingest through the serving layer: appends `row_batch`
  /// to the scenario (ScenarioRegistry::UpdateScenario — delta-refreshed
  /// statistics, fresh epoch). In-flight queries finish against the old
  /// snapshot; the next touch under the new epoch evicts the superseded
  /// cache entries.
  /// Records epoch_rollovers / rows_appended / update-latency metrics.
  Result<std::shared_ptr<const ScenarioBundle>> UpdateScenario(
      const std::string& name, const table::Table& row_batch);

  /// Runtime scenario registration with single-flight bundle
  /// construction: concurrent RegisterScenario calls for the same name
  /// run `build` exactly once — the first caller builds (outside all
  /// server locks) and publishes; the rest block and share its outcome
  /// (bundle or error). `replace=false` fails fast with kAlreadyExists
  /// when the name is live. Registration may evict LRU scenarios under a
  /// registry memory budget; the eviction listener sweeps their cache
  /// entries before this call returns. `default_options` seeds the
  /// bundle's per-query defaults; unset falls back to
  /// core::DefaultEvaluationOptions, which needs the scenario's
  /// ground-truth cluster DAG — file-loaded scenarios (no ground truth)
  /// must pass explicit options (plain PipelineOptions{} is fine).
  Result<std::shared_ptr<const ScenarioBundle>> RegisterScenario(
      const std::string& name, ScenarioBuilder build, bool replace = false,
      std::optional<core::PipelineOptions> default_options = std::nullopt);

  /// Removes a scenario at runtime. In-flight queries finish on their
  /// snapshots; the scenario's result/plan cache entries are swept, and
  /// subsequent queries get a descriptive kNotFound until the name is
  /// registered again. kNotFound when the name is not live.
  Status UnregisterScenario(const std::string& name);

  /// Counters plus current cache-size gauges (result_cache_entries /
  /// plan_cache_entries / result_payload_bytes / plan_cache_bytes, read
  /// under the server lock) and the registry's registration/eviction counters and byte
  /// gauges.
  MetricsSnapshot Metrics() const;

  /// Drops completed result-cache entries (pending single-flight claims
  /// stay — they carry waiters). The scenario plan cache is untouched:
  /// plans are evicted by epoch supersession, and keeping them warm is
  /// what makes this the "result cache cold, C-DAG warm" benchmark knob.
  /// Returns the number of entries dropped.
  std::size_t InvalidateCache();

  /// Stops accepting work, fails queued requests and plan/registration
  /// followers with kCancelled, signals in-flight runs' cancel tokens, and
  /// joins the workers. Idempotent.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  /// A result-tier client: the leader's own request or a follower.
  struct Waiter {
    std::promise<QueryResponse> promise;
    Clock::time_point submit_time;
  };

  /// What a computation answers with: the rendering the result tier
  /// keeps, plus, for a full-mode answer, the PipelineResult it was
  /// rendered from, handed only to the leader's and its followers'
  /// responses.
  struct Answer {
    std::shared_ptr<const RenderedAnswer> rendering;
    std::shared_ptr<const core::PipelineResult> result;
  };

  using PlanResult = Result<std::shared_ptr<const core::CdagPlan>>;
  using BundleResult = Result<std::shared_ptr<const ScenarioBundle>>;

  struct Request {
    CdiQuery query;
    std::shared_ptr<const ScenarioBundle> bundle;
    std::uint64_t key = 0;
    Clock::time_point deadline;  // Clock::time_point::max() = none
    Waiter client;
  };

  /// Admission-time validation against the bundle's shared statistics.
  Status ValidateQuery(const ScenarioBundle& bundle,
                       const CdiQuery& query) const;

  void WorkerLoop();
  /// Computes a popped request; answers it and its followers.
  void ExecuteRequest(Request request);
  Result<Answer> Compute(const Request& request, CancelToken* token);

  /// The pipeline on the request's bundle and options.
  Result<core::PipelineResult> RunPipeline(const Request& request,
                                           const std::string& exposure,
                                           const std::string& outcome,
                                           CancelToken* token) const;

  /// Advances results and plans to `epoch` for `scenario`, evicting its
  /// older done entries. Caller holds mu_.
  void EvictStaleLocked(const std::string& scenario, std::uint64_t epoch);

  /// The scenario's C-DAG plan: built by the first request on its worker
  /// (a canonical-pair pipeline run + CdagPlan::Build); concurrent
  /// requests block until it ends or their deadline passes.
  PlanResult GetOrBuildPlan(const Request& request, CancelToken* token);

  /// Fulfills one promise and bumps the per-response counters.
  void Respond(std::promise<QueryResponse>* promise, QueryResponse response);
  /// `source` applies to an answer; an error's source is kError.
  QueryResponse MakeResponse(
      Result<Answer> outcome, std::uint64_t key, std::uint64_t epoch,
      Clock::time_point submit_time,
      ResponseSource source = ResponseSource::kError) const;

  ScenarioRegistry* registry_;
  QueryServerOptions options_;
  mutable ServerMetrics metrics_;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::deque<Request> queue_;
  SingleFlightCache<std::uint64_t, std::shared_ptr<const RenderedAnswer>,
                    Waiter>
      results_;
  SingleFlightCache<std::uint64_t, std::shared_ptr<const core::CdagPlan>,
                    std::promise<PlanResult>>
      plans_;
  /// Never completed: the registry holds published bundles.
  SingleFlightCache<std::string, std::monostate, std::promise<BundleResult>>
      registrations_;
  /// Cancel tokens of currently-executing requests (for Shutdown).
  std::vector<CancelToken*> active_tokens_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Canonical cache key of a query against a bundle snapshot. Planned and
/// full answers to the same pair are distinct entries (the mode is mixed
/// into the key): they are different result types with different
/// listwise-deletion semantics. Summarize entries additionally mix the
/// node budget k, so each (scenario, epoch, k, options) summary is its
/// own single-flight entry; the render format is not mixed (both
/// renderings are cached together).
std::uint64_t QueryCacheKey(const ScenarioBundle& bundle,
                            const CdiQuery& query);

/// Canonical key of a scenario's C-DAG plan artifact: (scenario name,
/// epoch, options fingerprint) — one artifact per bundle snapshot per
/// semantic option set.
std::uint64_t PlanCacheKey(const ScenarioBundle& bundle,
                           const CdiQuery& query);

}  // namespace cdi::serve

#endif  // CDI_SERVE_QUERY_SERVER_H_
