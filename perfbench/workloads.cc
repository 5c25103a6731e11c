#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "harness.h"
#include "serve/line_protocol.h"

namespace perfbench {

namespace {

using cdi::serve::QueryMode;

/// Set-up rounds per run; setup_s is their median.
constexpr int kSetupRounds = 5;

/// ingest_churn: the open-loop updater's period and batch shape.
constexpr auto kUpdateInterval = std::chrono::milliseconds(40);
constexpr std::size_t kChurnBatches = 4;
constexpr std::size_t kChurnBatchRows = 20;

struct ScenarioPlan {
  ScenarioSource source;
  MixSpec mix;
};

struct WorkloadConfig {
  std::string name;
  std::vector<ScenarioPlan> scenarios;
  int workers = 1;
  int clients = 1;
};

/// The grid cells of warm_hits: both cluster counts, both mechanisms and
/// outcome kinds, every missingness level, split and oracle-noise level.
const char* const kWarmGridCells[] = {
    "grid_c4_lin_cont_m0_p1_o0",  "grid_c4_lin_cont_m0_p3_o1",
    "grid_c4_lin_cont_m1_p2_o2",  "grid_c4_lin_cont_m2_p2_o0",
    "grid_c4_lin_bin_m0_p3_o2",   "grid_c4_lin_bin_m1_p3_o0",
    "grid_c4_lin_bin_m2_p2_o1",   "grid_c4_quad_cont_m1_p3_o1",
    "grid_c4_quad_cont_m2_p2_o2", "grid_c4_quad_bin_m0_p2_o0",
    "grid_c4_quad_bin_m1_p3_o2",  "grid_c4_quad_bin_m2_p3_o0",
    "grid_c6_lin_cont_m0_p2_o1",  "grid_c6_lin_cont_m2_p1_o0",
    "grid_c6_lin_bin_m0_p2_o2",   "grid_c6_lin_bin_m1_p2_o0",
    "grid_c6_lin_bin_m2_p3_o2",   "grid_c6_quad_cont_m0_p3_o0",
};

std::vector<WorkloadConfig> Configs() {
  std::vector<WorkloadConfig> configs;

  // cold_start: the cold pipeline path at the re-anchor profile sizes.
  // Each operation re-registers a scenario (fresh epoch, every cache
  // cold), then asks one planned pair (plan build), one summary (merge
  // pass off the fresh plan) and the canonical pair in full mode (a
  // pair-exact pipeline run). One client keeps one request in flight;
  // four workers let successive runs land on different cores, which
  // averages out per-core host noise without adding contention.
  {
    MixSpec mix;
    mix.all_planned_pairs = false;
    mix.all_summaries = false;
    WorkloadConfig c{"cold_start", {}, 4, 1};
    c.scenarios.push_back({{"covid", 500}, mix});
    c.scenarios.push_back({{"flights", 900}, mix});
    c.scenarios.push_back({{"grid_c6_quad_cont_m2_p3_o1", 500}, mix});
    configs.push_back(std::move(c));
  }

  // warm_hits: the hot path over 20 scenarios, every key warmed.
  {
    MixSpec mix;
    mix.extra_full_pairs = 1;
    WorkloadConfig c{"warm_hits", {}, 4, 3};
    c.scenarios.push_back({{"covid", 200}, mix});
    c.scenarios.push_back({{"flights", 300}, mix});
    for (const char* cell : kWarmGridCells) {
      c.scenarios.push_back({{cell, 200}, mix});
    }
    configs.push_back(std::move(c));
  }

  // ingest_churn: two scenarios take row batches on a fixed schedule,
  // two stay static; both kinds are queried.
  {
    MixSpec churned;
    churned.full_canonical = false;
    MixSpec fixed;
    WorkloadConfig c{"ingest_churn", {}, 2, 2};
    const std::size_t rows = 160 + kChurnBatches * kChurnBatchRows;
    c.scenarios.push_back(
        {{"grid_c6_lin_cont_m0_p2_o1", rows, kChurnBatches, kChurnBatchRows},
         churned});
    c.scenarios.push_back(
        {{"grid_c4_lin_bin_m1_p3_o0", rows, kChurnBatches, kChurnBatchRows},
         churned});
    c.scenarios.push_back({{"covid", 150}, fixed});
    c.scenarios.push_back({{"grid_c4_quad_cont_m1_p3_o1", 200}, fixed});
    configs.push_back(std::move(c));
  }
  return configs;
}

struct Workload {
  std::vector<ScenarioInput> scenarios;
  std::vector<Entry> entries;
  std::vector<std::vector<std::size_t>> by_scenario;  // entry indices

  std::vector<const Entry*> EntriesOf(std::size_t s) const {
    std::vector<const Entry*> out;
    for (std::size_t i : by_scenario[s]) out.push_back(&entries[i]);
    return out;
  }
};

cdi::Result<Workload> Prepare(const WorkloadConfig& config,
                              std::uint64_t seed) {
  Workload w;
  for (const ScenarioPlan& plan : config.scenarios) {
    CDI_ASSIGN_OR_RETURN(ScenarioInput input,
                         MakeScenario(plan.source));
    w.scenarios.push_back(std::move(input));
  }
  for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
    CDI_ASSIGN_OR_RETURN(
        std::vector<Entry> entries,
        BuildEntries(s, &w.scenarios[s], config.scenarios[s].mix, seed));
    w.by_scenario.emplace_back();
    for (Entry& e : entries) {
      w.by_scenario.back().push_back(w.entries.size());
      w.entries.push_back(std::move(e));
    }
  }
  return w;
}

/// One closed-loop client's books (also used for set-up traffic).
struct Client {
  explicit Client(std::uint64_t index) : tracer(index) {}

  Tracer tracer;
  Samples query_us;         // untraced requests
  Samples traced_query_us;  // traced requests
  Samples full_query_ms;    // untraced full-mode requests
  Samples response_bytes;
  Samples gap_us;           // previous answer -> next send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  /// (scenario, epoch) pairs answered off a plan (planned / summarize).
  std::set<std::pair<std::size_t, std::uint64_t>> plan_epochs;
  std::vector<std::string> problems;
  Clock::time_point last_end{};

  void Problem(std::string what) {
    if (problems.size() < 3) problems.push_back(std::move(what));
  }
};

/// Sends `entry` and books the reply; a null `expected` leaves the
/// payload check to the caller.
Reply Send(cdi::serve::QueryServer* server, const Entry& entry,
           const std::string* expected, bool traced, Client* c) {
  if (c->last_end != Clock::time_point{}) {
    c->gap_us.Add(Seconds(c->last_end, Clock::now()) * 1e6);
  }
  Reply r = RoundTrip(server, entry.line, traced ? &c->tracer : nullptr);
  c->last_end = r.end;
  ++c->attempted;
  (traced ? c->traced_query_us : c->query_us).Add(r.micros());
  c->response_bytes.Add(static_cast<double>(r.line.size()));
  if (!r.response.status.ok()) {
    ++c->failed;
    c->Problem(entry.line + " -> " + r.line);
    return r;
  }
  if (entry.mode == QueryMode::kFull && !traced) {
    c->full_query_ms.Add(r.micros() / 1e3);
  }
  if (entry.mode != QueryMode::kFull) {
    c->plan_epochs.emplace(entry.scenario, r.response.scenario_epoch);
  }
  if (expected != nullptr && PayloadOf(r.line) != *expected) {
    ++c->mismatched;
    c->Problem("payload mismatch for '" + entry.line + "'");
  }
  return r;
}

/// Mean of one round of a round-robin over scenarios of different cost.
/// Per-round means are homogeneous samples: their median does not jump
/// between the cost groups the way the median of the raw mix does.
class RoundMean {
 public:
  void Add(double value) {
    sum_ += value;
    ++n_;
  }
  /// Adds the round's mean to `out` when the round has all `expected`
  /// values, then starts a new round.
  void Close(std::size_t expected, Samples* out) {
    if (n_ == expected && n_ > 0) out->Add(sum_ / static_cast<double>(n_));
    sum_ = 0.0;
    n_ = 0;
  }

 private:
  double sum_ = 0.0;
  std::size_t n_ = 0;
};

/// Writes (registrations and updates) and what they cost.
struct WriteLog {
  Samples write_us;           // call latency, from the scheduled time
  Samples fresh_ms;           // write start -> first fresh planned answer
  Samples fresh_round_ms;     // fresh_ms averaged per write round
  Samples registry_write_us;  // registry call time minus the builder
  Samples late_ms;            // open-loop updater lateness, in write order
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

void BookWrite(const WriteTiming& timing, WriteLog* log) {
  ++log->attempted;
  if (!timing.bundle.ok()) {
    ++log->failed;
    if (log->problems.size() < 3) {
      log->problems.push_back(timing.bundle.status().ToString());
    }
    return;
  }
  log->registry_write_us.Add(
      (timing.call_seconds - timing.builder_seconds) * 1e6);
}

/// One set-up round through the public API: registers every scenario,
/// then sends each of its entries once (warming every key), checking each
/// answer. Returns the epoch each scenario was registered under.
std::vector<std::uint64_t> SetupRound(cdi::serve::QueryServer* server,
                                      const Workload& w, bool traced,
                                      Client* client, WriteLog* writes,
                                      Samples* setup_seconds) {
  std::vector<std::uint64_t> epochs(w.scenarios.size(), 0);
  Tracer* tracer = traced ? &client->tracer : nullptr;
  const Clock::time_point start = Clock::now();
  RoundMean fresh_round;
  for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
    const Clock::time_point write_start = Clock::now();
    WriteTiming timing = Register(server, w.scenarios[s], false, tracer);
    BookWrite(timing, writes);
    if (!timing.bundle.ok()) continue;
    epochs[s] = (*timing.bundle)->epoch;
    writes->write_us.Add(timing.call_seconds * 1e6);
    bool fresh = true;
    for (std::size_t i : w.by_scenario[s]) {
      const Entry& e = w.entries[i];
      Reply r = Send(server, e, &e.expected[0], traced, client);
      if (fresh && e.mode == QueryMode::kPlanned && r.response.status.ok()) {
        const double ms = Seconds(write_start, r.end) * 1e3;
        writes->fresh_ms.Add(ms);
        fresh_round.Add(ms);
        fresh = false;
      }
    }
  }
  setup_seconds->Add(Seconds(start, Clock::now()));
  fresh_round.Close(w.scenarios.size(), &writes->fresh_round_ms);
  return epochs;
}

double StageShareDelta(const cdi::core::StageTimings& served,
                       const ReplayOutput& replay) {
  const double a[3] = {served.extract_seconds, served.organize_seconds,
                       served.build_seconds};
  const double b[3] = {replay.extract_seconds, replay.organize_seconds,
                       replay.build_seconds};
  const double sa = a[0] + a[1] + a[2];
  const double sb = b[0] + b[1] + b[2];
  double worst = 0.0;
  for (int i = 0; i < 3; ++i) {
    worst = std::max(worst, std::abs(a[i] / sa - b[i] / sb) * 100.0);
  }
  return worst;
}

/// What cold_start records beyond the client's books. Its three scenarios
/// form three cost groups; the median of the raw query mix sits on the
/// edge between two of them, so its latency samples are per operation
/// (one group per scenario, median inside the middle group) or per round.
struct ColdLog {
  Samples op_query_us;    // mean latency of each operation's queries
  Samples full_round_ms;  // full-mode latency, mean of each round
  /// Traced runs: largest stage-share difference between a replay and the
  /// served timings, in percentage points.
  Samples split_delta_pp;
  /// Replayed extract + organize + build time over the served latency of
  /// the planned query that built the plan.
  Samples stage_share;
};

/// cold_start's timed loop: one closed-loop client (this thread), taking
/// the scenarios round-robin. A traced run traces every other round.
void ColdStartLoop(const Options& opt, const Workload& w,
                   cdi::serve::QueryServer* server, Clock::time_point deadline,
                   Client* c, WriteLog* writes, ColdLog* cold,
                   ReplayStats* replay) {
  const std::size_t rounds_of = w.scenarios.size();
  RoundMean fresh_round;
  RoundMean full_round;
  for (std::uint64_t op = 0; Clock::now() < deadline; ++op) {
    const std::size_t s = op % rounds_of;
    const bool traced = opt.trace && (op / rounds_of) % 2 == 1;
    if (s == 0) {
      fresh_round.Close(rounds_of, &writes->fresh_round_ms);
      full_round.Close(rounds_of, &cold->full_round_ms);
    }
    Tracer* tracer = traced ? &c->tracer : nullptr;
    const Clock::time_point write_start = Clock::now();
    WriteTiming timing = Register(server, w.scenarios[s], true, tracer);
    BookWrite(timing, writes);
    if (!timing.bundle.ok()) continue;
    if (!traced) writes->write_us.Add(timing.call_seconds * 1e6);
    c->last_end = Clock::now();
    std::shared_ptr<const cdi::core::PipelineResult> served_full;
    double planned_seconds = 0.0;
    double query_seconds = 0.0;
    bool fresh = true;
    for (std::size_t i : w.by_scenario[s]) {
      const Entry& e = w.entries[i];
      Reply r = Send(server, e, &e.expected[0], traced, c);
      const bool ok = r.response.status.ok();
      query_seconds += Seconds(r.start, r.end);
      if (fresh && e.mode == QueryMode::kPlanned && ok && !traced) {
        const double ms = Seconds(write_start, r.end) * 1e3;
        writes->fresh_ms.Add(ms);
        fresh_round.Add(ms);
      }
      if (fresh && e.mode == QueryMode::kPlanned) {
        planned_seconds = Seconds(r.start, r.end);
        fresh = false;
      }
      if (e.mode == QueryMode::kFull && ok) {
        served_full = r.response.result;
        if (!traced) full_round.Add(r.micros() / 1e3);
      }
    }
    if (!traced) {
      cold->op_query_us.Add(query_seconds * 1e6 /
                            static_cast<double>(w.by_scenario[s].size()));
      continue;
    }
    // Replay the cold operation stage by stage; its canonical-pair result
    // must equal the served full-mode answer (the full query asks the
    // canonical pair), and its stage split is checked against the one
    // the server measured.
    ReplayOutput out = Replay(w.scenarios[s], 0, w.EntriesOf(s), tracer,
                              replay);
    if (out.result != nullptr && served_full != nullptr) {
      if (cdi::serve::ResultFingerprint(*out.result) !=
          cdi::serve::ResultFingerprint(*served_full)) {
        ++replay->mismatches;
      }
      cold->split_delta_pp.Add(StageShareDelta(served_full->timings, out));
      cold->stage_share.Add(
          (out.extract_seconds + out.organize_seconds + out.build_seconds) /
          planned_seconds);
    }
    c->last_end = Clock::time_point{};
  }
}

/// warm_hits' timed loop for one client: Zipf over scenarios (hottest
/// first in registration order), uniform over a scenario's entries.
void WarmHitsLoop(const Options& opt, const Workload& w,
                  cdi::serve::QueryServer* server, Clock::time_point deadline,
                  std::uint64_t client_index, Client* c) {
  cdi::Rng rng(cdi::Fnv1a("perfbench/warm").Mix(opt.seed)
                   .Mix(client_index).Digest());
  std::vector<double> weights(w.scenarios.size());
  for (std::size_t s = 0; s < weights.size(); ++s) {
    weights[s] = 1.0 / std::pow(static_cast<double>(s + 1), 1.1);
  }
  for (std::uint64_t n = 0; Clock::now() < deadline; ++n) {
    const auto& mine = w.by_scenario[rng.Categorical(weights)];
    const Entry& e = w.entries[mine[rng.UniformInt(mine.size())]];
    Send(server, e, &e.expected[0], opt.trace && n % 2 == 1, c);
  }
}

/// ingest_churn's shared bookkeeping: which phase each published epoch
/// of a churned scenario holds, and when each new epoch was first
/// answered.
struct ChurnBook {
  std::mutex mu;
  std::map<std::uint64_t, std::size_t> phase_of_epoch;
  std::vector<std::uint64_t> max_seen;  // per scenario
  std::vector<std::vector<std::pair<std::uint64_t, Clock::time_point>>>
      first_seen;  // per scenario
};

struct Deferred {
  std::size_t entry = 0;
  std::uint64_t epoch = 0;
  std::string payload;
};

struct Update {
  std::size_t scenario = 0;
  std::uint64_t round = 0;  // one round writes each churned scenario once
  std::uint64_t epoch = 0;
  Clock::time_point due;
};

void ChurnClientLoop(const Options& opt, const Workload& w,
                     cdi::serve::QueryServer* server,
                     Clock::time_point deadline, std::uint64_t client_index,
                     ChurnBook* book, Client* c,
                     std::vector<Deferred>* deferred) {
  cdi::Rng rng(cdi::Fnv1a("perfbench/churn").Mix(opt.seed)
                   .Mix(client_index).Digest());
  for (std::uint64_t n = 0; Clock::now() < deadline; ++n) {
    const std::size_t s = rng.UniformInt(w.scenarios.size());
    const auto& mine = w.by_scenario[s];
    const std::size_t index = mine[rng.UniformInt(mine.size())];
    const Entry& e = w.entries[index];
    const bool traced = opt.trace && n % 2 == 1;
    if (w.scenarios[s].phases() == 1) {
      Send(server, e, &e.expected[0], traced, c);
      continue;
    }
    Reply r = Send(server, e, nullptr, traced, c);
    if (!r.response.status.ok()) continue;
    const std::uint64_t epoch = r.response.scenario_epoch;
    const std::string_view payload = PayloadOf(r.line);
    std::size_t phase = SIZE_MAX;
    {
      std::lock_guard<std::mutex> lock(book->mu);
      auto it = book->phase_of_epoch.find(epoch);
      if (it != book->phase_of_epoch.end()) phase = it->second;
      if (epoch > book->max_seen[s]) {
        book->max_seen[s] = epoch;
        book->first_seen[s].emplace_back(epoch, r.end);
      }
    }
    if (phase == SIZE_MAX) {
      // Answered before the updater recorded the epoch: check it later.
      deferred->push_back({index, epoch, std::string(payload)});
    } else if (payload != e.expected[phase]) {
      ++c->mismatched;
      c->Problem("stale or torn answer for '" + e.line + "'");
    }
  }
}

/// The open-loop updater: every kUpdateInterval, alternately per churned
/// scenario, append the next held-back batch; once a scenario's batches
/// are used up, re-register its head table (replace), so table size stays
/// bounded. Each write is timed from its scheduled time.
void Updater(const Workload& w,
             const std::vector<std::size_t>& churned,
             cdi::serve::QueryServer* server, Clock::time_point start,
             Clock::time_point deadline, ChurnBook* book, Tracer* tracer,
             WriteLog* writes, std::vector<Update>* updates) {
  std::vector<std::size_t> next_batch(w.scenarios.size(), 0);
  for (std::uint64_t k = 0;; ++k) {
    const Clock::time_point due = start + kUpdateInterval * k;
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point begin = Clock::now();
    const double late_ms = Seconds(due, begin) * 1e3;
    writes->late_ms.Add(late_ms);
    const std::size_t s = churned[k % churned.size()];
    const ScenarioInput& input = w.scenarios[s];
    std::uint64_t epoch = 0;
    std::size_t phase = 0;
    if (next_batch[s] < input.batches.size()) {
      if (tracer != nullptr) tracer->BeginRequest();
      cdi::Result<std::shared_ptr<const cdi::serve::ScenarioBundle>> updated =
          cdi::Status::Internal("not run");
      {
        Tracer::Scope span(tracer, "registry.update");
        updated = server->UpdateScenario(input.name,
                                         input.batches[next_batch[s]]);
      }
      WriteTiming timing;
      timing.call_seconds = Seconds(begin, Clock::now());
      timing.bundle = std::move(updated);
      BookWrite(timing, writes);
      if (!timing.bundle.ok()) continue;
      epoch = (*timing.bundle)->epoch;
      phase = ++next_batch[s];
    } else {
      WriteTiming timing = Register(server, input, true, tracer);
      BookWrite(timing, writes);
      if (!timing.bundle.ok()) continue;
      epoch = (*timing.bundle)->epoch;
      next_batch[s] = 0;
    }
    writes->write_us.Add(Seconds(due, Clock::now()) * 1e6);
    {
      std::lock_guard<std::mutex> lock(book->mu);
      book->phase_of_epoch[epoch] = phase;
    }
    updates->push_back({s, k / churned.size(), epoch, due});
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Everything one run measured, read by the metric builders below.
struct RunRecord {
  explicit RunRecord(const Options& options, int num_clients)
      : opt(options),
        updater_tracer(static_cast<std::uint64_t>(num_clients) + 1),
        replay_tracer(static_cast<std::uint64_t>(num_clients) + 2) {
    for (int c = 0; c < num_clients; ++c) {
      clients.push_back(std::make_unique<Client>(c + 1));
    }
  }

  const Options& opt;
  Client setup_client{0};
  WriteLog setup_writes;
  Samples setup_seconds;
  std::vector<std::unique_ptr<Client>> clients;
  WriteLog writes;
  ReplayStats replay;
  ColdLog cold;  // cold_start only
  Tracer updater_tracer;
  Tracer replay_tracer;
  double timed_seconds = 0.0;
  cdi::serve::MetricsSnapshot after;  // end of the timed phase
  cdi::serve::MetricsSnapshot delta;  // over the timed phase
  /// Over every server of the run (set-up rounds included).
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_epochs = 0;

  SampleSets ClientSets(Samples Client::*member) const {
    SampleSets sets;
    for (const auto& c : clients) sets.push_back(&((*c).*member));
    return sets;
  }
  std::vector<const Tracer*> ClientTracers() const {
    std::vector<const Tracer*> tracers;
    for (const auto& c : clients) tracers.push_back(&c->tracer);
    return tracers;
  }
  std::vector<const Tracer*> AllTracers() const {
    std::vector<const Tracer*> tracers = ClientTracers();
    tracers.push_back(&setup_client.tracer);
    tracers.push_back(&updater_tracer);
    tracers.push_back(&replay_tracer);
    return tracers;
  }
  /// warm_hits writes only during set-up; the others in the timed phase.
  const WriteLog& TimedOrSetupWrites() const {
    return opt.workload == "warm_hits" ? setup_writes : writes;
  }
};

void Add(std::vector<Metric>* list, const char* name, double value,
         const char* unit, std::uint64_t samples) {
  list->push_back({name, value, unit, samples});
}

std::vector<Metric> EndToEndMetrics(const RunRecord& r,
                                    const Outcome& outcome) {
  const bool cold = r.opt.workload == "cold_start";
  const SampleSets queries_seen = r.ClientSets(&Client::query_us);
  const SampleSets query_us =
      cold ? SampleSets{&r.cold.op_query_us} : queries_seen;
  const SampleSets full_ms = cold ? SampleSets{&r.cold.full_round_ms}
                                  : r.ClientSets(&Client::full_query_ms);
  const std::uint64_t queries =
      Count(queries_seen) + Count(r.ClientSets(&Client::traced_query_us));
  const WriteLog& writes = r.TimedOrSetupWrites();
  const double attempted = static_cast<double>(outcome.attempted);
  std::vector<Metric> m;
  Add(&m, "setup_s", Quantile(r.setup_seconds, 0.5), "s",
      r.setup_seconds.count());
  Add(&m, "ops_ok_ratio",
      attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(outcome.failed) / attempted,
      "ratio", outcome.attempted);
  Add(&m, "rss_peak_mb", PeakRssMb(), "MB", 0);
  Add(&m, "query_us_p50", Quantile(query_us, 0.5), "us", Count(query_us));
  Add(&m, "query_us_p90", Quantile(query_us, 0.9), "us", Count(query_us));
  Add(&m, "queries_per_s", static_cast<double>(queries) / r.timed_seconds,
      "1/s", queries);
  Add(&m, "full_query_ms_p50", Quantile(full_ms, 0.5), "ms", Count(full_ms));
  Add(&m, "fresh_answer_ms_p50", Quantile(writes.fresh_round_ms, 0.5), "ms",
      writes.fresh_round_ms.count());
  Add(&m, "write_us_p50", Quantile(writes.write_us, 0.5), "us",
      writes.write_us.count());
  return m;
}

std::vector<Metric> PerLayerMetrics(const RunRecord& r) {
  const bool churn = r.opt.workload == "ingest_churn";
  const std::vector<const Tracer*> timed = r.ClientTracers();
  const std::vector<const Tracer*> all = r.AllTracers();
  const cdi::serve::MetricsSnapshot& d = r.delta;
  const double served = static_cast<double>(d.served);
  const auto share = [served](std::uint64_t n) {
    return served == 0 ? 0.0 : static_cast<double>(n) / served;
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  std::vector<Metric> m;
  // Self time of a span, q-quantile, scaled from microseconds.
  const auto span = [&m](const char* name, const char* layer, double q,
                         double scale, const char* unit,
                         const std::vector<const Tracer*>& from) {
    const SampleSets sets = SelfTimes(from, layer);
    Add(&m, name, Quantile(sets, q) * scale, unit, Count(sets));
  };
  const auto mean = [&m](const char* name, const Samples& s,
                         const char* unit) {
    Add(&m, name, Mean(s), unit, s.count());
  };

  span("line_protocol.parse_us_p50", "line_protocol.parse", 0.5, 1, "us",
       timed);
  span("line_protocol.format_us_p50", "line_protocol.format", 0.5, 1, "us",
       timed);
  const SampleSets bytes = r.ClientSets(&Client::response_bytes);
  Add(&m, "line_protocol.response_bytes_mean", Mean(bytes), "bytes",
      Count(bytes));
  span("query_server.submit_us_p50", "query_server.submit", 0.5, 1, "us",
       timed);
  span("query_server.wait_us_p99", "query_server.wait", 0.99, 1, "us", timed);
  Add(&m, "query_server.queue_depth_hwm",
      count(r.after.queue_depth_high_water), "count", 0);
  Add(&m, "query_server.hit_ratio", share(d.cache_hits), "ratio", d.served);
  Add(&m, "query_server.coalesced_ratio", share(d.coalesced), "ratio",
      d.served);
  Add(&m, "query_server.plan_builds_per_epoch",
      r.plan_epochs == 0 ? 0.0 : count(r.plan_builds) / count(r.plan_epochs),
      "ratio", r.plan_epochs);
  Add(&m, "query_server.executions", count(d.executions), "count", 0);
  Add(&m, "query_server.plan_builds", count(d.plan_builds), "count", 0);
  Add(&m, "query_server.summary_builds", count(d.summary_builds), "count", 0);
  Add(&m, "query_server.evicted_stale", count(d.evicted_stale), "count", 0);
  Add(&m, "query_server.result_cache_entries",
      count(r.after.result_cache_entries), "count", 0);
  Add(&m, "query_server.plan_cache_entries",
      count(r.after.plan_cache_entries), "count", 0);
  const SampleSets registry = {&r.setup_writes.registry_write_us,
                               &r.writes.registry_write_us};
  Add(&m, "registry.write_us_p50", Quantile(registry, 0.5), "us",
      Count(registry));
  Add(&m, "registry.bytes", count(r.after.registry_bytes), "bytes", 0);
  span("core.extract_ms_p50", "core.extract", 0.5, 1e-3, "ms", all);
  span("core.organize_ms_p50", "core.organize", 0.5, 1e-3, "ms", all);
  span("core.build_ms_p50", "core.build", 0.5, 1e-3, "ms", all);
  span("core.effect_us_p50", "core.effect", 0.5, 1, "us", all);
  span("core.plan_build_ms_p50", "core.plan_build", 0.5, 1e-3, "ms", all);
  Add(&m, "core.organize.fd_scan_ms_p50", Quantile(r.replay.fd_scan_ms, 0.5),
      "ms", r.replay.fd_scan_ms.count());
  Add(&m, "core.organize.fd_scan_share",
      Quantile(r.replay.fd_scan_share, 0.5), "ratio",
      r.replay.fd_scan_share.count());
  span("core.answer_pair_us_p50", "core.answer_pair", 0.5, 1, "us", all);
  mean("knowledge.kg_calls", r.replay.kg_calls, "count");
  mean("knowledge.lake_calls", r.replay.lake_calls, "count");
  mean("knowledge.oracle_calls", r.replay.oracle_calls, "count");
  mean("knowledge.columns_kept_ratio", r.replay.columns_kept_ratio, "ratio");
  mean("discovery.ci_tests", r.replay.ci_tests, "count");
  span("summarize.build_ms_p50", "summarize.build", 0.5, 1e-3, "ms", all);
  mean("summarize.pairs_scored", r.replay.pairs_scored, "count");
  // The open-loop updater's lateness, or the closed-loop clients' gap
  // between an answer and their next send.
  const SampleSets late =
      churn ? SampleSets{&r.writes.late_ms} : r.ClientSets(&Client::gap_us);
  Add(&m, "bench.send_late_ms_p90",
      Quantile(late, 0.9) * (churn ? 1.0 : 1e-3), "ms", Count(late));
  const SampleSets untraced = r.ClientSets(&Client::query_us);
  const SampleSets traced = r.ClientSets(&Client::traced_query_us);
  const double base = Quantile(untraced, 0.5);
  Add(&m, "bench.trace_overhead_pct",
      base == 0.0 ? 0.0 : (Quantile(traced, 0.5) - base) / base * 100, "%",
      Count(traced));
  return m;
}

/// The human-readable lines: the end-to-end metrics plus the per-operation
/// views of each workload and the traced run's cross-checks.
std::vector<Metric> ReportLines(const RunRecord& r, std::vector<Metric> m) {
  const SampleSets query_us = r.ClientSets(&Client::query_us);
  const Samples& fresh = r.writes.fresh_ms;
  if (r.opt.workload == "cold_start") {
    Add(&m, "cold_plan_ms_p50", Quantile(fresh, 0.5), "ms", fresh.count());
    Add(&m, "cold_plan_ms_p90", Quantile(fresh, 0.9), "ms", fresh.count());
    const SampleSets full_ms = r.ClientSets(&Client::full_query_ms);
    Add(&m, "full_query_ms_p90", Quantile(full_ms, 0.9), "ms",
        Count(full_ms));
  } else {
    Add(&m, "query_us_p99", Quantile(query_us, 0.99), "us", Count(query_us));
  }
  if (r.opt.workload == "ingest_churn") {
    const WriteLog& w = r.writes;
    Add(&m, "update_us_p90", Quantile(w.write_us, 0.9), "us",
        w.write_us.count());
    Add(&m, "fresh_answer_ms_p90", Quantile(fresh, 0.9), "ms", fresh.count());
    Add(&m, "bench.update_late_ms_p90", Quantile(w.late_ms, 0.9), "ms",
        w.late_ms.count());
  }
  Add(&m, "timed_s", r.timed_seconds, "s", 0);
  if (r.opt.trace) {
    const ColdLog& checks = r.cold;
    Add(&m, "core.stage_split_delta_pp_max",
        Quantile(checks.split_delta_pp, 1.0), "pp",
        checks.split_delta_pp.count());
    Add(&m, "core.stage_share_of_cold_plan_p50",
        Quantile(checks.stage_share, 0.5), "ratio",
        checks.stage_share.count());
    Add(&m, "core.replays", static_cast<double>(r.replay.replays), "count",
        0);
  }
  return m;
}

}  // namespace

Outcome RunWorkload(const Options& opt) {
  Outcome out;
  const auto fail = [&out](std::string why) {
    out.correct = false;
    out.problems.push_back(std::move(why));
    return out;
  };
  const std::vector<WorkloadConfig> configs = Configs();
  auto config = std::find_if(
      configs.begin(), configs.end(),
      [&opt](const WorkloadConfig& c) { return c.name == opt.workload; });
  if (config == configs.end()) return fail("unknown workload " + opt.workload);

  // ---- Inputs and references, before any timing. -----------------------
  const Clock::time_point origin = Clock::now();
  auto prepared = Prepare(*config, opt.seed);
  if (!prepared.ok()) return fail("inputs: " + prepared.status().ToString());
  const Workload& w = *prepared;
  RunRecord r(opt, config->clients);

  // ---- Set-up rounds; the last one's server runs the timed phase. ------
  std::unique_ptr<ServerHandle> handle;
  std::vector<std::uint64_t> epochs;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (handle != nullptr) {
      r.plan_builds += handle->server->Metrics().plan_builds;
      r.plan_epochs += r.setup_client.plan_epochs.size();
      r.setup_client.plan_epochs.clear();
    }
    handle = std::make_unique<ServerHandle>(config->workers);
    epochs = SetupRound(handle->server.get(), w, opt.trace, &r.setup_client,
                        &r.setup_writes, &r.setup_seconds);
  }
  cdi::serve::QueryServer* server = handle->server.get();

  // ---- Timed phase. ------------------------------------------------------
  ChurnBook book;
  std::vector<std::vector<Deferred>> deferred(r.clients.size());
  std::vector<Update> updates;
  std::vector<std::size_t> churned;  // ingest_churn's written scenarios
  const cdi::serve::MetricsSnapshot before = server->Metrics();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds));
  if (opt.workload == "cold_start") {
    ColdStartLoop(opt, w, server, deadline, r.clients[0].get(), &r.writes,
                  &r.cold, &r.replay);
  } else if (opt.workload == "warm_hits") {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < r.clients.size(); ++c) {
      threads.emplace_back(WarmHitsLoop, std::cref(opt), std::cref(w), server,
                           deadline, c, r.clients[c].get());
    }
    for (auto& t : threads) t.join();
  } else {
    book.max_seen.assign(w.scenarios.size(), 0);
    book.first_seen.resize(w.scenarios.size());
    for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
      if (w.scenarios[s].phases() == 1) continue;
      churned.push_back(s);
      book.phase_of_epoch[epochs[s]] = 0;
      book.max_seen[s] = epochs[s];
    }
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < r.clients.size(); ++c) {
      threads.emplace_back(ChurnClientLoop, std::cref(opt), std::cref(w),
                           server, deadline, c, &book, r.clients[c].get(),
                           &deferred[c]);
    }
    threads.emplace_back(Updater, std::cref(w), std::cref(churned), server,
                         start, deadline, &book,
                         opt.trace ? &r.updater_tracer : nullptr, &r.writes,
                         &updates);
    for (auto& t : threads) t.join();
  }
  r.timed_seconds = Seconds(start, Clock::now());
  r.after = server->Metrics();
  r.delta = r.after.Since(before);

  // ---- Post-run checks and (traced) replays. -----------------------------
  std::uint64_t mismatched = r.setup_client.mismatched;
  for (std::size_t c = 0; c < r.clients.size(); ++c) {
    mismatched += r.clients[c]->mismatched;
    for (const Deferred& d : deferred[c]) {
      auto it = book.phase_of_epoch.find(d.epoch);
      if (it == book.phase_of_epoch.end() ||
          d.payload != w.entries[d.entry].expected[it->second]) {
        ++mismatched;
        out.problems.push_back("stale or torn answer for '" +
                               w.entries[d.entry].line + "'");
      }
    }
  }
  // ingest_churn: update due -> first answer of its epoch or a later one;
  // the updater's rounds alternate over the churned scenarios.
  RoundMean fresh_round;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    if (i > 0 && u.round != updates[i - 1].round) {
      fresh_round.Close(churned.size(), &r.writes.fresh_round_ms);
    }
    std::optional<Clock::time_point> first;
    for (const auto& [epoch, when] : book.first_seen[u.scenario]) {
      if (epoch >= u.epoch && (!first || when < *first)) first = when;
    }
    if (!first) continue;
    const double ms = Seconds(u.due, *first) * 1e3;
    r.writes.fresh_ms.Add(ms);
    fresh_round.Add(ms);
  }
  fresh_round.Close(churned.size(), &r.writes.fresh_round_ms);
  // The updater writes a few hundred times per run, far below the sample
  // cap, so late_ms keeps every value in write order.
  bool backlog_grows = false;
  if (r.writes.late_ms.kept().size() >= 6) {
    const auto& seq = r.writes.late_ms.kept();
    const std::size_t third = seq.size() / 3;
    const double first =
        Median(std::vector<double>(seq.begin(), seq.begin() + third));
    const double last =
        Median(std::vector<double>(seq.end() - third, seq.end()));
    const double interval_ms =
        std::chrono::duration<double, std::milli>(kUpdateInterval).count();
    backlog_grows = last - first > interval_ms / 2;
  }
  if (opt.trace && opt.workload != "cold_start") {
    // cold_start replays inline; the others replay each scenario (at each
    // phase) once.
    for (std::size_t s = 0; s < w.scenarios.size(); ++s) {
      for (std::size_t p = 0; p < w.scenarios[s].phases(); ++p) {
        Replay(w.scenarios[s], p, w.EntriesOf(s), &r.replay_tracer,
               &r.replay);
      }
    }
  }
  mismatched += r.replay.mismatches;
  std::set<std::pair<std::size_t, std::uint64_t>> last_epochs =
      r.setup_client.plan_epochs;
  for (const auto& c : r.clients) {
    last_epochs.insert(c->plan_epochs.begin(), c->plan_epochs.end());
  }
  r.plan_builds += r.after.plan_builds;
  r.plan_epochs += last_epochs.size();
  handle.reset();

  // ---- Verdict and metrics. ----------------------------------------------
  out.attempted = r.writes.attempted;
  out.failed = r.writes.failed;
  for (const auto& c : r.clients) {
    out.attempted += c->attempted;
    out.failed += c->failed;
    for (const auto& p : c->problems) out.problems.push_back(p);
  }
  for (const WriteLog* log : {&r.setup_writes, &r.writes}) {
    for (const auto& p : log->problems) out.problems.push_back(p);
  }
  for (const auto& p : r.setup_client.problems) out.problems.push_back(p);
  if (mismatched > 0) {
    out.problems.push_back(std::to_string(mismatched) +
                           " answers differ from their references");
  }
  if (backlog_grows) {
    out.problems.push_back(
        "invalid run: the updater's lateness grew across the run");
  }
  const std::uint64_t setup_failed =
      r.setup_client.failed + r.setup_writes.failed;
  out.correct = mismatched == 0 && out.failed == 0 && setup_failed == 0 &&
                !backlog_grows && out.attempted > 0;

  std::vector<Metric> e2e = EndToEndMetrics(r, out);
  out.report = ReportLines(r, e2e);
  out.metrics = opt.trace ? PerLayerMetrics(r) : std::move(e2e);
  if (opt.trace && !opt.trace_out.empty() &&
      !WriteTrace(opt.trace_out, r.AllTracers(), origin)) {
    out.problems.push_back("could not write " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
