#include "harness.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "core/cdag_builder.h"
#include "core/data_organizer.h"
#include "core/effect.h"
#include "core/fd.h"
#include "core/knowledge_extractor.h"
#include "core/sensitivity.h"
#include "datagen/covid.h"
#include "datagen/flights.h"
#include "datagen/grid.h"
#include "knowledge/data_lake.h"
#include "knowledge/knowledge_graph.h"
#include "knowledge/text_oracle.h"
#include "serve/line_protocol.h"
#include "summarize/summarize.h"

namespace perfbench {

namespace {

using cdi::serve::QueryMode;

/// Scenario data is the same in every run: pipeline cost varies by tens
/// of percent between data draws, which would swamp run-to-run noise.
/// The run seed drives the request stream instead.
constexpr std::uint64_t kDataSeed = 2023;

std::uint64_t DerivedSeed(const char* tag, std::uint64_t seed,
                          const std::string& name) {
  return cdi::Fnv1a(tag).Mix(seed).Mix(name).Digest();
}

std::string ErrorLine(const cdi::Status& status) {
  return std::string("error code=") + cdi::StatusCodeName(status.code());
}

std::string SummaryPayload(const cdi::core::ClusterDag& cdag, std::size_t k,
                           const std::string& format) {
  cdi::summarize::SummarizeOptions options;
  options.budget = k;
  auto summary = cdi::summarize::SummarizeClusterDag(cdag, options);
  if (!summary.ok()) return ErrorLine(summary.status());
  cdi::serve::SummaryArtifact artifact;
  artifact.dot = summary->ToDot();
  artifact.json = summary->ToJson();
  artifact.summary = std::make_shared<const cdi::summarize::SummaryDag>(
      std::move(summary).value());
  return cdi::serve::FormatSummaryPayload(artifact, format);
}

bool IsError(const std::string& payload) {
  return payload.rfind("error ", 0) == 0;
}

}  // namespace

cdi::serve::QueryServer::ScenarioBuilder ScenarioInput::Builder() const {
  std::shared_ptr<const cdi::datagen::Scenario> prebuilt = scenario;
  return [prebuilt]()
             -> cdi::Result<std::shared_ptr<const cdi::datagen::Scenario>> {
    return prebuilt;
  };
}

cdi::Result<ScenarioInput> MakeScenario(const ScenarioSource& source) {
  const std::uint64_t data_seed =
      DerivedSeed("perfbench/data", kDataSeed, source.name) % 1000000007ULL;
  auto built = [&]() {
    if (source.name != "covid" && source.name != "flights") {
      return cdi::datagen::BuildGridScenario(source.name, source.entities,
                                             data_seed);
    }
    cdi::datagen::ScenarioSpec spec = source.name == "covid"
                                          ? cdi::datagen::CovidSpec()
                                          : cdi::datagen::FlightsSpec();
    spec.num_entities = source.entities;
    spec.seed = data_seed;
    return cdi::datagen::BuildScenario(spec);
  }();
  if (!built.ok()) return built.status();
  std::unique_ptr<cdi::datagen::Scenario> scenario = std::move(built).value();

  ScenarioInput input;
  input.name = source.name;
  // Hold back the tail rows as update batches: every appended row is an
  // entity the knowledge sources already cover.
  const std::size_t held = source.batches * source.batch_rows;
  cdi::table::Table& full = scenario->input_table;
  if (held > 0) {
    if (full.num_rows() < held + 20) {
      return cdi::Status::InvalidArgument("scenario " + source.name +
                                          " is too small to hold back " +
                                          std::to_string(held) + " rows");
    }
    const std::size_t head = full.num_rows() - held;
    for (std::size_t b = 0; b < source.batches; ++b) {
      std::vector<std::size_t> rows(source.batch_rows);
      for (std::size_t i = 0; i < source.batch_rows; ++i) {
        rows[i] = head + b * source.batch_rows + i;
      }
      input.batches.push_back(full.TakeRows(rows));
    }
    full = full.Head(head);
  }
  input.scenario = std::move(scenario);

  // The registry derives the bundle's default options and numeric
  // attributes; a scratch registration reads them off.
  cdi::serve::ScenarioRegistry scratch;
  auto bundle = scratch.Register(input.name, input.scenario);
  if (!bundle.ok()) return bundle.status();
  input.options = (*bundle)->default_options;
  input.numeric = (*bundle)->numeric_attributes;

  input.phase_tables.emplace_back(input.scenario,
                                  &input.scenario->input_table);
  for (const cdi::table::Table& batch : input.batches) {
    auto grown =
        std::make_shared<cdi::table::Table>(*input.phase_tables.back());
    CDI_RETURN_IF_ERROR(grown->AppendRows(batch));
    input.phase_tables.push_back(std::move(grown));
  }
  return input;
}

cdi::Result<std::vector<Entry>> BuildEntries(std::size_t index,
                                             ScenarioInput* input,
                                             const MixSpec& spec,
                                             std::uint64_t seed) {
  const cdi::datagen::Scenario& sc = *input->scenario;
  const std::string& entity = sc.spec.entity_column;
  cdi::core::Pipeline pipeline(&sc.kg, &sc.lake, sc.oracle.get(), &sc.topics,
                               input->options);
  cdi::Rng rng(DerivedSeed("perfbench/mix", seed, input->name));

  // Canonical-pair run and plan per phase: the artifact every planned and
  // summarize answer of that phase is served from.
  std::vector<std::shared_ptr<const cdi::core::CdagPlan>> plans;
  std::size_t min_clusters = SIZE_MAX;
  input->canonical_fingerprint.clear();
  for (const auto& table : input->phase_tables) {
    auto run = pipeline.Run(*table, entity, sc.exposure_attribute,
                            sc.outcome_attribute);
    if (!run.ok()) return run.status();
    input->canonical_fingerprint.push_back(
        cdi::serve::ResultFingerprint(*run));
    auto plan =
        cdi::core::CdagPlan::Build(std::make_shared<const cdi::core::PipelineResult>(
            std::move(run).value()));
    if (!plan.ok()) return plan.status();
    min_clusters = std::min(min_clusters,
                            plan->artifact().build.cdag.num_clusters());
    plans.push_back(std::make_shared<const cdi::core::CdagPlan>(
        std::move(plan).value()));
  }

  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& t : input->numeric) {
    for (const auto& o : input->numeric) {
      if (t != o) pairs.emplace_back(t, o);
    }
  }
  rng.Shuffle(&pairs);

  std::vector<Entry> entries;
  const auto answerable = [](const Entry& entry) {
    return std::none_of(entry.expected.begin(), entry.expected.end(),
                        IsError);
  };

  for (const auto& [t, o] : pairs) {
    Entry e;
    e.scenario = index;
    e.mode = QueryMode::kPlanned;
    e.exposure = t;
    e.outcome = o;
    e.line = "query " + input->name + " " + t + " " + o + " mode=planned";
    for (const auto& plan : plans) {
      auto answer = plan->AnswerPair(t, o);
      e.expected.push_back(
          answer.ok() ? cdi::serve::FormatPairAnswerPayload(*answer)
                      : ErrorLine(answer.status()));
    }
    if (!answerable(e)) continue;
    entries.push_back(std::move(e));
    if (!spec.all_planned_pairs) break;
  }
  if (entries.empty()) {
    return cdi::Status::FailedPrecondition(
        "scenario " + input->name + " has no pair its plan answers");
  }

  {
    std::vector<Entry> summaries;
    for (std::size_t k = 2; k <= min_clusters; ++k) {
      for (const char* format : {"dot", "json"}) {
        Entry e;
        e.scenario = index;
        e.mode = QueryMode::kSummarize;
        e.k = k;
        e.format = format;
        e.line = "summarize " + input->name + " k=" + std::to_string(k) +
                 " format=" + format;
        for (const auto& plan : plans) {
          e.expected.push_back(
              SummaryPayload(plan->artifact().build.cdag, k, format));
        }
        if (answerable(e)) summaries.push_back(std::move(e));
      }
    }
    if (!spec.all_summaries && !summaries.empty()) {
      // The smallest budget (the most merge rounds) in a seeded format:
      // the first two entries are that budget in dot and json.
      Entry one = summaries[summaries.size() > 1 ? rng.UniformInt(2) : 0];
      summaries.assign(1, std::move(one));
    }
    for (Entry& e : summaries) entries.push_back(std::move(e));
  }

  std::vector<std::pair<std::string, std::string>> full_pairs;
  if (spec.full_canonical) {
    full_pairs.emplace_back(sc.exposure_attribute, sc.outcome_attribute);
  }
  for (const auto& pair : pairs) {
    if (full_pairs.size() >=
        (spec.full_canonical ? 1 : 0) + spec.extra_full_pairs) {
      break;
    }
    if (pair.first == sc.exposure_attribute &&
        pair.second == sc.outcome_attribute) {
      continue;
    }
    full_pairs.push_back(pair);
  }
  for (const auto& [t, o] : full_pairs) {
    Entry e;
    e.scenario = index;
    e.mode = QueryMode::kFull;
    e.exposure = t;
    e.outcome = o;
    e.line = "query " + input->name + " " + t + " " + o + " mode=full";
    for (std::size_t p = 0; p < input->phase_tables.size(); ++p) {
      if (t == sc.exposure_attribute && o == sc.outcome_attribute) {
        e.expected.push_back(
            cdi::serve::FormatResultPayload(plans[p]->artifact()));
        continue;
      }
      auto run = pipeline.Run(*input->phase_tables[p], entity, t, o);
      e.expected.push_back(run.ok() ? cdi::serve::FormatResultPayload(*run)
                                    : ErrorLine(run.status()));
    }
    if (answerable(e)) entries.push_back(std::move(e));
  }
  return entries;
}

Reply RoundTrip(cdi::serve::QueryServer* server, const std::string& line,
                Tracer* tracer) {
  Reply reply;
  if (tracer != nullptr) tracer->BeginRequest();
  reply.start = Clock::now();
  {
    Tracer::Scope request(tracer, "request");
    cdi::Result<cdi::serve::ServerCommand> command =
        cdi::Status::Internal("unparsed");
    {
      Tracer::Scope span(tracer, "line_protocol.parse");
      command = cdi::serve::ParseCommandLine(line);
    }
    if (!command.ok()) {
      reply.response.status = command.status();
      reply.line = ErrorLine(command.status());
    } else {
      std::future<cdi::serve::QueryResponse> future;
      {
        Tracer::Scope span(tracer, "query_server.submit");
        future = server->Submit(command->query);
      }
      {
        Tracer::Scope span(tracer, "query_server.wait");
        reply.response = future.get();
      }
      {
        Tracer::Scope span(tracer, "line_protocol.format");
        reply.line =
            cdi::serve::FormatResponseLine(command->query, reply.response);
      }
    }
  }
  reply.end = Clock::now();
  return reply;
}

std::string_view PayloadOf(const std::string& line) {
  if (line.rfind("ok ", 0) != 0) return {};
  std::size_t begin = line.find(" source=");
  if (begin == std::string::npos) return {};
  begin = line.find(' ', begin + 1);
  const std::size_t end = line.rfind(" latency_us=");
  if (begin == std::string::npos || end == std::string::npos || end <= begin) {
    return {};
  }
  return std::string_view(line).substr(begin + 1, end - begin - 1);
}

ServerHandle::ServerHandle(int workers)
    : registry(std::make_unique<cdi::serve::ScenarioRegistry>()) {
  cdi::serve::QueryServerOptions options;
  options.num_workers = workers;
  server = std::make_unique<cdi::serve::QueryServer>(registry.get(), options);
}

WriteTiming Register(cdi::serve::QueryServer* server,
                     const ScenarioInput& input, bool replace,
                     Tracer* tracer) {
  WriteTiming timing;
  double builder_seconds = 0.0;
  auto prebuilt = input.Builder();
  auto builder = [&prebuilt, &builder_seconds]() {
    const Clock::time_point start = Clock::now();
    auto scenario = prebuilt();
    builder_seconds = Seconds(start, Clock::now());
    return scenario;
  };
  if (tracer != nullptr) tracer->BeginRequest();
  const Clock::time_point start = Clock::now();
  {
    Tracer::Scope span(tracer, "registry.register");
    timing.bundle = server->RegisterScenario(input.name, builder, replace);
  }
  timing.call_seconds = Seconds(start, Clock::now());
  timing.builder_seconds = builder_seconds;
  return timing;
}

ReplayOutput Replay(const ScenarioInput& input, std::size_t phase,
                    const std::vector<const Entry*>& entries, Tracer* tracer,
                    ReplayStats* stats) {
  const cdi::datagen::Scenario& sc = *input.scenario;
  const cdi::table::Table& table = *input.phase_tables[phase];
  const cdi::core::PipelineOptions& options = input.options;
  const std::string& entity = sc.spec.entity_column;
  const std::string& exposure = sc.exposure_attribute;
  const std::string& outcome = sc.outcome_attribute;
  ++stats->replays;
  ReplayOutput out;
  const auto failed = [&stats, &out]() {
    ++stats->mismatches;
    return out;
  };
  const auto timed = [](Clock::time_point start) {
    return Seconds(start, Clock::now());
  };

  if (tracer != nullptr) tracer->BeginRequest();
  Tracer::Scope root(tracer, "replay");
  cdi::core::PipelineResult result;
  Clock::time_point start;
  {
    Tracer::Scope span(tracer, "core.extract");
    start = Clock::now();
    cdi::core::KnowledgeExtractor extractor(&sc.kg, &sc.lake,
                                            options.extractor);
    auto extracted = extractor.Extract(table, entity, exposure, outcome,
                                       &result.external);
    out.extract_seconds = timed(start);
    if (!extracted.ok()) return failed();
    result.extraction = std::move(extracted).value();
  }
  {
    Tracer::Scope span(tracer, "core.organize");
    start = Clock::now();
    cdi::core::DataOrganizer organizer(options.organizer);
    auto organized = organizer.Organize(result.extraction.augmented, entity,
                                        exposure, outcome);
    out.organize_seconds = timed(start);
    if (!organized.ok()) return failed();
    result.organization = std::move(organized).value();
  }
  {
    // The organizer's diagnostic FD scan, called again on the table it
    // scans, to report its share of the organize stage.
    Tracer::Scope span(tracer, "core.organize.fd_scan");
    start = Clock::now();
    auto fds = cdi::core::FindApproximateFds(result.organization.organized,
                                             /*max_error=*/0.01);
    const double seconds = timed(start);
    if (!fds.ok()) return failed();
    stats->fd_scan_ms.Add(seconds * 1e3);
    if (out.organize_seconds > 0.0) {
      stats->fd_scan_share.Add(seconds / out.organize_seconds);
    }
  }
  {
    Tracer::Scope span(tracer, "core.build");
    start = Clock::now();
    cdi::core::CdagBuilder builder(sc.oracle.get(), &sc.topics,
                                   options.builder);
    auto built = builder.Build(result.organization.organized, entity,
                               exposure, outcome,
                               result.organization.row_weights,
                               &result.external);
    out.build_seconds = timed(start);
    if (!built.ok()) return failed();
    result.build = std::move(built).value();
  }
  const auto estimate = [&](const std::vector<std::string>& adjustment,
                            cdi::core::EffectEstimate* effect) {
    Tracer::Scope span(tracer, "core.effect");
    auto estimated = cdi::core::EstimateEffect(
        result.organization.organized, exposure, outcome, adjustment,
        result.organization.row_weights);
    if (!estimated.ok()) return false;
    *effect = std::move(estimated).value();
    return true;
  };
  if (!estimate(result.build.cdag.DirectEffectAdjustmentAttributes(),
                &result.direct_effect) ||
      !estimate(result.build.cdag.TotalEffectAdjustmentAttributes(),
                &result.total_effect)) {
    return failed();
  }
  result.direct_effect_sensitivity =
      cdi::core::AnalyzeSensitivity(result.direct_effect);
  result.timings.extract_seconds = out.extract_seconds;
  result.timings.organize_seconds = out.organize_seconds;
  result.timings.build_seconds = out.build_seconds;

  const cdi::LatencyMeter& external = result.external;
  stats->kg_calls.Add(static_cast<double>(
      external.Calls(cdi::knowledge::KnowledgeGraph::kServiceName)));
  stats->lake_calls.Add(static_cast<double>(
      external.Calls(cdi::knowledge::DataLake::kServiceName)));
  stats->oracle_calls.Add(static_cast<double>(
      external.Calls(cdi::knowledge::TextCausalOracle::kServiceName)));
  const std::size_t found = result.extraction.kg_columns_found +
                            result.extraction.lake_columns_found;
  if (found > 0) {
    stats->columns_kept_ratio.Add(
        static_cast<double>(result.extraction.attributes.size()) /
        static_cast<double>(found));
  }
  stats->ci_tests.Add(static_cast<double>(result.build.ci_tests));

  out.result = std::make_shared<const cdi::core::PipelineResult>(
      std::move(result));
  if (cdi::serve::ResultFingerprint(*out.result) !=
      input.canonical_fingerprint[phase]) {
    return failed();
  }

  cdi::Result<cdi::core::CdagPlan> plan = cdi::Status::Internal("unbuilt");
  {
    Tracer::Scope span(tracer, "core.plan_build");
    plan = cdi::core::CdagPlan::Build(out.result);
  }
  if (!plan.ok()) return failed();
  for (const Entry* entry : entries) {
    std::string payload;
    if (entry->mode == QueryMode::kPlanned) {
      Tracer::Scope span(tracer, "core.answer_pair");
      auto answer = plan->AnswerPair(entry->exposure, entry->outcome);
      payload = answer.ok() ? cdi::serve::FormatPairAnswerPayload(*answer)
                            : ErrorLine(answer.status());
    } else if (entry->mode == QueryMode::kSummarize) {
      Tracer::Scope span(tracer, "summarize.build");
      cdi::summarize::SummarizeOptions summarize_options;
      summarize_options.budget = entry->k;
      auto summary = cdi::summarize::SummarizeClusterDag(
          plan->artifact().build.cdag, summarize_options);
      if (!summary.ok()) return failed();
      stats->pairs_scored.Add(static_cast<double>(summary->pairs_scored()));
      cdi::serve::SummaryArtifact artifact;
      artifact.dot = summary->ToDot();
      artifact.json = summary->ToJson();
      artifact.summary = std::make_shared<const cdi::summarize::SummaryDag>(
          std::move(summary).value());
      payload = cdi::serve::FormatSummaryPayload(artifact, entry->format);
    } else {
      continue;  // full mode: the canonical fingerprint check covers it
    }
    if (payload != entry->expected[phase]) ++stats->mismatches;
  }
  return out;
}

}  // namespace perfbench
