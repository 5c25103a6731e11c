#include "serve/query_server.h"

#include <algorithm>
#include <new>
#include <utility>

#include "common/hash.h"
#include "serve/line_protocol.h"

namespace cdi::serve {

std::uint64_t QueryCacheKey(const ScenarioBundle& bundle,
                            const CdiQuery& query) {
  const std::uint64_t options_fingerprint =
      query.options.has_value()
          ? core::PipelineOptionsFingerprint(*query.options)
          : bundle.default_options_fingerprint;
  return Fnv1a("cdi::serve::QueryKey/v1")
      .Mix(bundle.name)
      .Mix(bundle.epoch)
      .Mix(query.exposure)
      .Mix(query.outcome)
      .Mix(static_cast<std::uint64_t>(query.mode))
      .Mix(static_cast<std::uint64_t>(query.summarize_k))
      .Mix(options_fingerprint)
      .Digest();
}

std::uint64_t PlanCacheKey(const ScenarioBundle& bundle,
                           const CdiQuery& query) {
  const std::uint64_t options_fingerprint =
      query.options.has_value()
          ? core::PipelineOptionsFingerprint(*query.options)
          : bundle.default_options_fingerprint;
  return Fnv1a("cdi::serve::PlanKey/v1")
      .Mix(bundle.name)
      .Mix(bundle.epoch)
      .Mix(options_fingerprint)
      .Digest();
}

QueryServer::QueryServer(ScenarioRegistry* registry,
                         QueryServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.pipeline_threads < 1) options_.pipeline_threads = 1;
  // Registry evictions (memory budget or unregister) sweep the departed
  // scenario's cache entries through the ordinary stale-epoch path: the
  // eviction epoch is stamped above every epoch the scenario published,
  // so EvictStaleLocked retires exactly its entries — and refuses to
  // retain results of in-flight queries that complete after the
  // eviction. The registry fires the listener outside its map lock;
  // the only lock taken inside is mu_, and no QueryServer path calls
  // into the registry while holding mu_, so the order is acyclic.
  registry_->SetEvictionListener(
      [this](const std::string& name, std::uint64_t eviction_epoch) {
        std::lock_guard<std::mutex> lock(mu_);
        EvictStaleLocked(name, eviction_epoch);
      });
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::ValidateQuery(const ScenarioBundle& bundle,
                                  const CdiQuery& query) const {
  // Planned and summarize answers come off the plan of the scenario's
  // canonical pair; registration admits both halves of it or neither.
  if (query.mode != QueryMode::kFull &&
      bundle.scenario->exposure_attribute.empty()) {
    return Status::InvalidArgument(
        "scenario '" + bundle.name +
        "' has no canonical exposure/outcome pair, which " +
        (query.mode == QueryMode::kPlanned ? "planned" : "summarize") +
        " queries need (register it with exposure= and outcome=)");
  }
  if (query.mode == QueryMode::kSummarize) {
    // Summaries are per-scenario, not per-pair: the exposure/outcome
    // checks below do not apply. The budget floor is checked here (O(1),
    // before the queue); the ceiling needs the built C-DAG's node count
    // and is checked at execution by Summarize itself.
    if (query.summarize_k < 2) {
      return Status::InvalidArgument(
          "summary budget k must be at least 2 (got " +
          std::to_string(query.summarize_k) + ")");
    }
    if (query.summarize_format != "dot" && query.summarize_format != "json") {
      return Status::InvalidArgument("bad summary format '" +
                                     query.summarize_format +
                                     "' (expected dot|json)");
    }
    return Status::OK();
  }
  // O(1) on the bundle's shared statistics, before the queue: a pair
  // that cannot be estimated never occupies a slot and a worker only to
  // fail inside Pipeline::Run's validation.
  return bundle.CheckPair(query.exposure, query.outcome,
                          /*need_variance=*/true);
}

QueryResponse QueryServer::MakeResponse(Result<Answer> outcome,
                                        std::uint64_t key, std::uint64_t epoch,
                                        Clock::time_point submit_time,
                                        ResponseSource source) const {
  QueryResponse response;
  if (outcome.ok()) {
    response.rendering = std::move(outcome->rendering);
    response.result = std::move(outcome->result);
    response.source = source;
  } else {
    response.status = outcome.status();
  }
  response.cache_key = key;
  response.scenario_epoch = epoch;
  response.latency_seconds =
      std::chrono::duration<double>(Clock::now() - submit_time).count();
  return response;
}

void QueryServer::Respond(std::promise<QueryResponse>* promise,
                          QueryResponse response) {
  if (response.status.ok()) {
    metrics_.served.fetch_add(1, std::memory_order_relaxed);
    metrics_.latency.Record(response.latency_seconds);
  } else {
    switch (response.status.code()) {
      case StatusCode::kResourceExhausted:
        metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kDeadlineExceeded:
        metrics_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
        break;
      case StatusCode::kCancelled:
        metrics_.cancelled.fetch_add(1, std::memory_order_relaxed);
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        metrics_.failed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  promise->set_value(std::move(response));
}

std::future<QueryResponse> QueryServer::Submit(CdiQuery query) {
  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point submit_time = Clock::now();
  std::promise<QueryResponse> promise;
  std::future<QueryResponse> future = promise.get_future();

  // Resolve + validate outside the server lock (registry has its own).
  auto bundle_or = registry_->Snapshot(query.scenario);
  if (!bundle_or.ok()) {
    Respond(&promise, MakeResponse(bundle_or.status(), 0, 0, submit_time));
    return future;
  }
  std::shared_ptr<const ScenarioBundle> bundle = *std::move(bundle_or);
  if (Status v = ValidateQuery(*bundle, query); !v.ok()) {
    Respond(&promise,
            MakeResponse(std::move(v), 0, bundle->epoch, submit_time));
    return future;
  }

  const std::uint64_t key = QueryCacheKey(*bundle, query);
  const std::uint64_t epoch = bundle->epoch;
  // A timeout too long to land before time_point::max() (~292 years and
  // up, or +inf through the API) means "no deadline". The check runs in
  // floating point before the cast, which would overflow.
  Clock::time_point deadline = Clock::time_point::max();
  if (query.timeout_seconds > 0.0) {
    const Clock::duration room = deadline - submit_time;
    if (query.timeout_seconds <
        std::chrono::duration<double>(room).count()) {
      const auto timeout = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(query.timeout_seconds));
      if (timeout < room) deadline = submit_time + timeout;
    }
  }

  std::shared_ptr<const RenderedAnswer> hit;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
      Respond(&promise,
              MakeResponse(Status::Cancelled("server is shut down"), key,
                           epoch, submit_time));
      return future;
    }
    // Touching a scenario under a fresh epoch evicts the done entries of
    // the superseded epochs — registry Replace + next touch bounds the
    // caches without a flush call.
    EvictStaleLocked(query.scenario, epoch);
    const std::shared_ptr<const RenderedAnswer>* done = nullptr;
    switch (results_.Find(key, &done)) {
      case FlightState::kDone:
        hit = *done;  // respond unlocked
        break;
      case FlightState::kPending:
        // Single-flight: follow the in-flight leader. No queue slot.
        metrics_.coalesced.fetch_add(1, std::memory_order_relaxed);
        results_.Attach(key, Waiter{std::move(promise), submit_time});
        return future;
      case FlightState::kAbsent:
        if (queue_.size() >= options_.max_queue_depth) {
          lock.unlock();
          Respond(&promise,
                  MakeResponse(
                      Status::ResourceExhausted(
                          "admission queue is full (depth " +
                          std::to_string(options_.max_queue_depth) + ")"),
                      key, epoch, submit_time));
          return future;
        }
        // Claim the entry pending *now* so identical queries coalesce from
        // this moment on, then enqueue the leader.
        results_.Claim(key, query.scenario, epoch);
        queue_.push_back(Request{std::move(query), std::move(bundle), key,
                                 deadline,
                                 Waiter{std::move(promise), submit_time}});
        metrics_.ObserveQueueDepth(queue_.size());
        work_ready_.notify_one();
        return future;
    }
  }

  // Completed-entry cache hit: serve without a worker.
  metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
  Respond(&promise, MakeResponse(Answer{std::move(hit), nullptr}, key, epoch,
                                 submit_time, ResponseSource::kCacheHit));
  return future;
}

QueryResponse QueryServer::Execute(CdiQuery query) {
  return Submit(std::move(query)).get();
}

Result<std::shared_ptr<const ScenarioBundle>> QueryServer::UpdateScenario(
    const std::string& name, const table::Table& row_batch) {
  const Clock::time_point start = Clock::now();

  auto updated = registry_->UpdateScenario(name, row_batch);
  if (!updated.ok()) return updated;

  metrics_.epoch_rollovers.fetch_add(1, std::memory_order_relaxed);
  metrics_.rows_appended.fetch_add(row_batch.num_rows(),
                                   std::memory_order_relaxed);
  metrics_.update_latency.Record(
      std::chrono::duration<double>(Clock::now() - start).count());
  return updated;
}

Result<std::shared_ptr<const ScenarioBundle>> QueryServer::RegisterScenario(
    const std::string& name, ScenarioBuilder build, bool replace,
    std::optional<core::PipelineOptions> default_options) {
  if (!build) {
    return Status::InvalidArgument("RegisterScenario needs a builder");
  }
  std::future<BundleResult> leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Cancelled("server is shut down");
    if (registrations_.Find(name) == FlightState::kPending) {
      // Single-flight: somebody is already building this name — share
      // their outcome instead of materializing a duplicate.
      std::promise<BundleResult> waiter;
      leader = waiter.get_future();
      registrations_.Attach(name, std::move(waiter));
    } else {
      registrations_.Claim(name);
    }
  }
  if (leader.valid()) return leader.get();

  // Leader: build outside all server locks, publish, then answer the
  // followers. The registry re-checks name collisions atomically at
  // publish, so the fast-path existence check here just skips an
  // expensive build.
  const BundleResult published = [&]() -> BundleResult {
    if (!replace && registry_->Snapshot(name).ok()) {
      return Status::AlreadyExists("scenario '" + name +
                                   "' is already registered");
    }
    // An allocation failure inside the builder is this registration's
    // error, not the server's: it must not escape (terminating the
    // process) or skip the Abandon below (wedging the name's claim).
    auto scenario =
        [&]() -> Result<std::shared_ptr<const datagen::Scenario>> {
      try {
        return build();
      } catch (const std::bad_alloc&) {
        return Status::ResourceExhausted("out of memory");
      }
    }();
    if (!scenario.ok()) {
      return Status(scenario.status().code(),
                    "building scenario '" + name +
                        "': " + scenario.status().message());
    }
    if (*scenario == nullptr) {
      return Status::InvalidArgument("builder for scenario '" + name +
                                     "' returned null");
    }
    return replace ? registry_->Replace(name, *std::move(scenario),
                                        std::move(default_options))
                   : registry_->Register(name, *std::move(scenario),
                                         std::move(default_options));
  }();

  std::vector<std::promise<BundleResult>> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    followers = registrations_.Abandon(name);
  }
  for (auto& follower : followers) follower.set_value(published);
  return published;
}

Status QueryServer::UnregisterScenario(const std::string& name) {
  // The registry stamps the eviction epoch and fires the listener, which
  // sweeps the scenario's result/plan cache entries under mu_ before
  // Unregister returns.
  return registry_->Unregister(name);
}

void QueryServer::WorkerLoop() {
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // Shutdown already drained the queue
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    ExecuteRequest(std::move(request));
  }
}

void QueryServer::ExecuteRequest(Request request) {
  CancelToken token;
  if (request.deadline != Clock::time_point::max()) {
    token.set_deadline(request.deadline);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_tokens_.push_back(&token);
    // Raced with Shutdown after being popped: Shutdown's token sweep
    // missed this request, so deliver the cancellation here.
    if (stopping_) token.Cancel();
  }

  // The deadline covers queueing: a request that waited past it fails
  // here without burning pipeline work.
  Status admitted = token.Check();
  Result<Answer> answer = admitted.ok() ? Compute(request, &token)
                                        : Result<Answer>(std::move(admitted));

  std::vector<Waiter> followers;
  bool retained = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_tokens_.erase(
        std::remove(active_tokens_.begin(), active_tokens_.end(), &token),
        active_tokens_.end());
    // Only the rendering is retained.
    followers = answer.ok() ? results_.Complete(request.key,
                                                answer->rendering, &retained)
                            : results_.Abandon(request.key);
  }
  if (answer.ok()) metrics_.executions.fetch_add(1, std::memory_order_relaxed);
  if (!retained) {
    metrics_.evicted_stale.fetch_add(1, std::memory_order_relaxed);
  }

  // The last response takes the answer over, so once every response is
  // out the server holds no reference to a full answer's PipelineResult:
  // it lives exactly as long as the responses that carry it.
  const std::uint64_t epoch = request.bundle->epoch;
  const auto respond = [&](Waiter* waiter, ResponseSource source,
                           bool last) {
    Respond(&waiter->promise,
            MakeResponse(last ? std::move(answer) : answer, request.key,
                         epoch, waiter->submit_time, source));
  };
  respond(&request.client, ResponseSource::kExecuted, followers.empty());
  for (std::size_t i = 0; i < followers.size(); ++i) {
    respond(&followers[i], ResponseSource::kCoalesced,
            i + 1 == followers.size());
  }
}

Result<QueryServer::Answer> QueryServer::Compute(const Request& request,
                                                 CancelToken* token) {
  const CdiQuery& query = request.query;
  if (query.mode == QueryMode::kFull) {
    if (options_.pre_execute_hook) options_.pre_execute_hook();
    CDI_ASSIGN_OR_RETURN(core::PipelineResult run,
                         RunPipeline(request, query.exposure, query.outcome,
                                     token));
    auto result = std::make_shared<const core::PipelineResult>(std::move(run));
    return Answer{std::make_shared<const RenderedAnswer>(
                      RenderedAnswer{FormatResultPayload(*result), {}}),
                  std::move(result)};
  }

  // Planned and summarize requests share the scenario's C-DAG plan;
  // everything after it is a pure function of the artifact and query.
  CDI_ASSIGN_OR_RETURN(std::shared_ptr<const core::CdagPlan> plan,
                       GetOrBuildPlan(request, token));
  if (query.mode == QueryMode::kPlanned) {
    // Identification + linear algebra on the shared statistics.
    CDI_ASSIGN_OR_RETURN(core::PairAnswer pair,
                         plan->AnswerPair(query.exposure, query.outcome));
    return Answer{std::make_shared<const RenderedAnswer>(
                      RenderedAnswer{FormatPairAnswerPayload(pair), {}}),
                  nullptr};
  }

  // Summarize: the greedy merge pass runs to the requested budget, and
  // both payloads are rendered once; the artifact is dropped after.
  const Clock::time_point build_start = Clock::now();
  summarize::SummarizeOptions sopts;
  sopts.budget = query.summarize_k;
  CDI_ASSIGN_OR_RETURN(
      summarize::SummaryDag built,
      summarize::SummarizeClusterDag(plan->artifact().build.cdag, sopts));
  SummaryArtifact artifact;
  artifact.dot = built.ToDot();
  artifact.json = built.ToJson();
  artifact.summary =
      std::make_shared<const summarize::SummaryDag>(std::move(built));
  auto rendering = std::make_shared<const RenderedAnswer>(
      RenderedAnswer{FormatSummaryPayload(artifact, "dot"),
                     FormatSummaryPayload(artifact, "json")});
  metrics_.summary_builds.fetch_add(1, std::memory_order_relaxed);
  metrics_.summary_latency.Record(
      std::chrono::duration<double>(Clock::now() - build_start).count());
  return Answer{std::move(rendering), nullptr};
}

Result<core::PipelineResult> QueryServer::RunPipeline(
    const Request& request, const std::string& exposure,
    const std::string& outcome, CancelToken* token) const {
  core::PipelineOptions pipeline_options =
      request.query.options.has_value() ? *request.query.options
                                        : request.bundle->default_options;
  pipeline_options.num_threads = options_.pipeline_threads;
  const datagen::Scenario& sc = *request.bundle->scenario;
  core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                          pipeline_options);
  // The bundle's live table, not the scenario's original: after an
  // UpdateScenario rollover they differ, and the epoch in the cache keys
  // refers to the former.
  return pipeline.Run(*request.bundle->input, sc.spec.entity_column,
                      exposure, outcome, token);
}

QueryServer::PlanResult QueryServer::GetOrBuildPlan(const Request& request,
                                                    CancelToken* token) {
  const std::uint64_t key = PlanCacheKey(*request.bundle, request.query);
  std::shared_ptr<const core::CdagPlan> cached;
  std::future<PlanResult> leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::shared_ptr<const core::CdagPlan>* done = nullptr;
    switch (plans_.Find(key, &done)) {
      case FlightState::kDone:
        cached = *done;
        break;
      case FlightState::kPending: {
        if (stopping_) return Status::Cancelled("server shutting down");
        std::promise<PlanResult> waiter;
        leader = waiter.get_future();
        plans_.Attach(key, std::move(waiter));
        break;
      }
      case FlightState::kAbsent:
        plans_.Claim(key, request.query.scenario, request.bundle->epoch);
        break;
    }
  }
  if (options_.pre_execute_hook) options_.pre_execute_hook();
  if (cached != nullptr) return cached;
  if (leader.valid()) {
    // Another worker is building this plan: wait for it, observing this
    // request's own deadline (the leader's build keeps going — a follower
    // timing out must not evict the shared build).
    if (request.deadline != Clock::time_point::max() &&
        leader.wait_until(request.deadline) == std::future_status::timeout) {
      return Status::DeadlineExceeded(
          "deadline expired while waiting for the scenario C-DAG plan "
          "build");
    }
    return leader.get();
  }

  // Leader: run the scenario's canonical pair.
  const PlanResult plan = [&]() -> PlanResult {
    const datagen::Scenario& sc = *request.bundle->scenario;
    CDI_ASSIGN_OR_RETURN(core::PipelineResult run,
                         RunPipeline(request, sc.exposure_attribute,
                                     sc.outcome_attribute, token));
    CDI_ASSIGN_OR_RETURN(
        core::CdagPlan built,
        core::CdagPlan::Build(
            std::make_shared<const core::PipelineResult>(std::move(run))));
    return std::make_shared<const core::CdagPlan>(std::move(built));
  }();
  if (plan.ok()) metrics_.plan_builds.fetch_add(1, std::memory_order_relaxed);

  std::vector<std::promise<PlanResult>> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    followers = plan.ok() ? plans_.Complete(key, *plan) : plans_.Abandon(key);
  }
  for (auto& follower : followers) follower.set_value(plan);
  return plan;
}

void QueryServer::EvictStaleLocked(const std::string& scenario,
                                   std::uint64_t epoch) {
  const std::size_t evicted =
      results_.Advance(scenario, epoch) + plans_.Advance(scenario, epoch);
  if (evicted > 0) {
    metrics_.evicted_stale.fetch_add(evicted, std::memory_order_relaxed);
  }
}

MetricsSnapshot QueryServer::Metrics() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.result_cache_entries = results_.size();
    snap.plan_cache_entries = plans_.size();
    // Only summaries render a JSON payload.
    snap.summary_cache_entries = results_.SumDone(
        [](const std::shared_ptr<const RenderedAnswer>& rendering)
            -> std::uint64_t {
          return rendering->json_payload.empty() ? 0 : 1;
        });
    snap.result_payload_bytes = results_.SumDone(
        [](const std::shared_ptr<const RenderedAnswer>& rendering)
            -> std::uint64_t {
          return rendering->payload.size() + rendering->json_payload.size();
        });
    snap.plan_cache_bytes = plans_.SumDone(
        [](const std::shared_ptr<const core::CdagPlan>& plan)
            -> std::uint64_t { return plan->FactorCacheBytes(); });
  }
  const RegistryStats registry = registry_->Stats();
  snap.scenarios_registered = registry.scenarios_registered;
  snap.scenarios_evicted = registry.scenarios_evicted;
  snap.scenarios_unregistered = registry.scenarios_unregistered;
  snap.registry_bytes = registry.registry_bytes;
  snap.registry_scenarios = registry.scenarios;
  return snap;
}

std::size_t QueryServer::InvalidateCache() {
  std::lock_guard<std::mutex> lock(mu_);
  return results_.EvictDone();
}

void QueryServer::Shutdown() {
  // Detach from the registry first: after this returns, no eviction can
  // call back into a server that is tearing down. SetEvictionListener
  // serializes with in-flight listener calls, and mu_ is not held here,
  // so the listener's listener_mu_ -> mu_ order cannot deadlock.
  registry_->SetEvictionListener(nullptr);
  // Queued requests and every follower fail now, not when a leader
  // finishes; leaders still end their claims, with nobody to answer.
  std::vector<std::pair<Request, std::vector<Waiter>>> dropped;
  std::vector<std::promise<PlanResult>> plan_followers;
  std::vector<std::promise<BundleResult>> registration_followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (Request& request : queue_) {
      std::vector<Waiter> followers = results_.Abandon(request.key);
      dropped.emplace_back(std::move(request), std::move(followers));
    }
    queue_.clear();
    plan_followers = plans_.TakeWaiters();
    registration_followers = registrations_.TakeWaiters();
    for (CancelToken* token : active_tokens_) token->Cancel();
    work_ready_.notify_all();
  }
  const Status shutdown = Status::Cancelled("server shutting down");
  for (auto& follower : plan_followers) follower.set_value(shutdown);
  for (auto& follower : registration_followers) {
    follower.set_value(Status::Cancelled("server is shut down"));
  }
  for (auto& [request, followers] : dropped) {
    followers.push_back(std::move(request.client));
    for (Waiter& w : followers) {
      Respond(&w.promise, MakeResponse(shutdown, request.key,
                                       request.bundle->epoch, w.submit_time));
    }
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

}  // namespace cdi::serve
