#include "serve/scenario_registry.h"

#include <mutex>
#include <utility>

#include "core/evaluation.h"
#include "table/column.h"

namespace cdi::serve {

std::size_t ScenarioBundle::NumericIndex(const std::string& attribute) const {
  for (std::size_t i = 0; i < numeric_attributes.size(); ++i) {
    if (numeric_attributes[i] == attribute) return i;
  }
  return kNotNumeric;
}

Status ScenarioBundle::CheckPair(const std::string& exposure,
                                 const std::string& outcome,
                                 bool need_variance) const {
  const std::pair<const char*, const std::string*> roles[] = {
      {"exposure", &exposure}, {"outcome", &outcome}};
  // The entity column is the join key, not a variable.
  for (const auto& [role, attr] : roles) {
    if (*attr == scenario->spec.entity_column) {
      return Status::InvalidArgument(
          std::string(role) + " '" + *attr + "' is the entity column of " +
          "scenario '" + name + "', not a variable");
    }
  }
  for (const auto& [role, attr] : roles) {
    const std::size_t idx = NumericIndex(*attr);
    if (idx == kNotNumeric) {
      std::string msg = std::string(role) + " '" + *attr +
                        "' is not a numeric attribute of scenario '" + name +
                        "' (available:";
      for (const auto& a : numeric_attributes) msg += " " + a;
      msg += ")";
      return Status::InvalidArgument(std::move(msg));
    }
    // The shared sufficient statistics make this O(1): a zero diagonal
    // entry of S means the column is constant over the complete rows.
    if (need_variance && input_stats != nullptr &&
        input_stats->cross_products()(idx, idx) <= 0.0) {
      return Status::InvalidArgument(std::string(role) + " '" + *attr +
                                     "' has no variance in scenario '" +
                                     name + "'");
    }
  }
  if (exposure == outcome) {
    return Status::InvalidArgument(
        "exposure and outcome must be distinct (both '" + exposure + "')");
  }
  return Status::OK();
}

std::size_t EstimateBundleBytes(const ScenarioBundle& bundle) {
  std::size_t bytes = sizeof(ScenarioBundle) + bundle.name.size();
  if (bundle.input != nullptr) bytes += bundle.input->ByteSize();
  if (bundle.input_stats != nullptr) {
    const std::size_t p = bundle.input_stats->num_vars();
    const std::size_t n = bundle.input_stats->num_rows();
    // means + column sums + per-variable weights (p doubles each), the
    // p x p cross-product matrix, and the complete-row mask (byte/row).
    bytes += (3 * p + p * p) * sizeof(double) + n;
  }
  for (const auto& a : bundle.numeric_attributes) {
    bytes += a.size() + sizeof(std::string);
  }
  return bytes;
}

ScenarioRegistry::ScenarioRegistry(RegistryOptions options)
    : budget_(options.memory_budget_bytes) {}

void ScenarioRegistry::SetEvictionListener(EvictionListener listener) {
  std::lock_guard<std::mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

Status ScenarioRegistry::MissingLocked(const std::string& name,
                                       const char* hint) const {
  auto reason = evicted_reason_.find(name);
  if (reason != evicted_reason_.end()) {
    return Status::NotFound("scenario '" + name + "' was " + reason->second +
                            "; " + hint);
  }
  return Status::NotFound("scenario '" + name + "' is not registered");
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Register(
    const std::string& name,
    std::shared_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options) {
  return Insert(name, std::move(scenario), std::move(default_options),
                /*allow_replace=*/false);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Replace(
    const std::string& name,
    std::shared_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options) {
  return Insert(name, std::move(scenario), std::move(default_options),
                /*allow_replace=*/true);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Insert(
    const std::string& name,
    std::shared_ptr<const datagen::Scenario> scenario,
    std::optional<core::PipelineOptions> default_options,
    bool allow_replace) {
  if (name.empty()) {
    return Status::InvalidArgument("scenario name must be non-empty");
  }
  if (scenario == nullptr) {
    return Status::InvalidArgument("scenario must be non-null");
  }

  // Build the bundle outside the lock; only the map publish is
  // serialized.
  auto bundle = std::make_shared<ScenarioBundle>();
  bundle->name = name;
  bundle->scenario = std::move(scenario);
  // Fresh registrations serve the scenario's own table; the aliasing
  // constructor keeps the scenario alive through `input` without a copy.
  bundle->input = std::shared_ptr<const table::Table>(
      bundle->scenario, &bundle->scenario->input_table);
  bundle->default_options =
      default_options.has_value()
          ? *std::move(default_options)
          : core::DefaultEvaluationOptions(*bundle->scenario);
  bundle->default_options_fingerprint =
      core::PipelineOptionsFingerprint(bundle->default_options);

  // Shared per-dataset sufficient statistics over the input table's
  // numeric columns. Spans borrow the table's buffers; the bundle keeps
  // the scenario alive for as long as any query holds the snapshot.
  const table::Table& input = *bundle->input;
  stats::NumericDataset ds;
  for (std::size_t c = 0; c < input.num_cols(); ++c) {
    const table::Column& col = input.ColumnAt(c);
    if (col.type() == table::DataType::kString) continue;
    if (col.name() == bundle->scenario->spec.entity_column) continue;
    bundle->numeric_attributes.push_back(col.name());
    ds.columns.push_back(col.View());
  }
  // A declared canonical pair is what planned and summarize queries build
  // their plan from; a bad one is rejected here, not by every such query.
  const std::string& exposure = bundle->scenario->exposure_attribute;
  const std::string& outcome = bundle->scenario->outcome_attribute;
  if (exposure.empty() != outcome.empty()) {
    return Status::InvalidArgument(
        "scenario '" + name + "' declares " +
        (exposure.empty() ? "outcome '" + outcome + "' but no exposure"
                          : "exposure '" + exposure + "' but no outcome") +
        " (declare both or neither)");
  }
  if (!exposure.empty()) {
    const Status pair = bundle->CheckPair(exposure, outcome,
                                          /*need_variance=*/false);
    if (!pair.ok()) {
      return Status(pair.code(), "scenario '" + name +
                                     "' declares an unusable canonical "
                                     "pair: " + pair.message());
    }
  }
  if (!ds.columns.empty()) {
    auto stats = stats::SufficientStats::Compute(ds);
    if (!stats.ok()) {
      return Status(stats.status().code(),
                    "registering scenario '" + name +
                        "': " + stats.status().message());
    }
    bundle->input_stats = std::make_shared<const stats::SufficientStats>(
        *std::move(stats));
  }
  bundle->memory_bytes = EstimateBundleBytes(*bundle);

  std::shared_ptr<const ScenarioBundle> out;
  std::vector<std::pair<std::string, std::uint64_t>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!allow_replace && entries_.count(name) != 0) {
      return Status::AlreadyExists("scenario '" + name +
                                   "' is already registered");
    }
    out = bundle;
    PublishLocked(name, std::move(bundle), &evicted);
  }
  registered_.fetch_add(1, std::memory_order_relaxed);
  NotifyEvicted(evicted);
  return out;
}

Status ScenarioRegistry::Unregister(const std::string& name) {
  std::uint64_t eviction_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return MissingLocked(name, "nothing to unregister");
    }
    bytes_ -= it->second.bundle->memory_bytes;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    evicted_reason_[name] = "unregistered";
    eviction_epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  unregistered_.fetch_add(1, std::memory_order_relaxed);
  NotifyEvicted({{name, eviction_epoch}});
  return Status::OK();
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::UpdateScenario(
    const std::string& name, const table::Table& row_batch) {
  if (row_batch.num_rows() == 0) {
    return Status::InvalidArgument("row batch for scenario '" + name +
                                   "' has no rows");
  }
  std::shared_ptr<const ScenarioBundle> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return MissingLocked(name, "re-register it before appending rows");
    }
    old = it->second.bundle;
  }

  // Everything expensive happens outside the lock, against the snapshot.
  // Grow a private copy of the live table: the previous epoch's buffers —
  // and every span the old bundle's statistics borrowed from them — stay
  // untouched for in-flight queries holding the old snapshot.
  auto grown = std::make_shared<table::Table>(*old->input);
  if (Status s = grown->AppendRows(row_batch); !s.ok()) {
    return Status(s.code(),
                  "updating scenario '" + name + "': " + s.message());
  }

  auto bundle = std::make_shared<ScenarioBundle>();
  bundle->name = name;
  bundle->scenario = old->scenario;
  bundle->input = grown;
  bundle->default_options = old->default_options;
  bundle->default_options_fingerprint = old->default_options_fingerprint;
  bundle->numeric_attributes = old->numeric_attributes;
  bundle->rows_appended = row_batch.num_rows();

  if (old->input_stats != nullptr) {
    // Delta-refresh: continue the previous epoch's accumulators over the
    // appended rows instead of recomputing from scratch. The copied stats
    // adopt full-length spans into the grown table, so the new bundle is
    // self-contained.
    auto stats =
        std::make_shared<stats::SufficientStats>(*old->input_stats);
    std::vector<DoubleSpan> views;
    views.reserve(bundle->numeric_attributes.size());
    for (const auto& attr : bundle->numeric_attributes) {
      auto col = grown->GetColumn(attr);
      if (!col.ok()) return col.status();  // unreachable after AppendRows
      views.push_back((*col)->View());
    }
    if (Status s = stats->AppendRows(views, row_batch.num_rows()); !s.ok()) {
      return Status(s.code(),
                    "updating scenario '" + name + "': " + s.message());
    }
    bundle->input_stats = std::move(stats);
  }
  bundle->memory_bytes = EstimateBundleBytes(*bundle);

  std::shared_ptr<const ScenarioBundle> out;
  std::vector<std::pair<std::string, std::uint64_t>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      // Evicted or unregistered while the delta was being prepared.
      auto reason = evicted_reason_.find(name);
      const std::string why = reason != evicted_reason_.end()
                                  ? reason->second
                                  : "unregistered";
      return Status::NotFound("scenario '" + name + "' was " + why +
                              " while the row batch was being applied; "
                              "re-register it first");
    }
    if (it->second.bundle != old) {
      // Lost a race with Replace/another update: the delta was computed
      // against a superseded table, so publishing it would drop rows.
      return Status::Aborted("scenario '" + name +
                             "' changed while the row batch was being "
                             "applied; retry against the new snapshot");
    }
    out = bundle;
    PublishLocked(name, std::move(bundle), &evicted);
  }
  NotifyEvicted(evicted);
  return out;
}

void ScenarioRegistry::PublishLocked(
    const std::string& name, std::shared_ptr<ScenarioBundle> bundle,
    std::vector<std::pair<std::string, std::uint64_t>>* evicted) {
  // The epoch is stamped at publish time so it is monotone with respect
  // to every other publication *and* eviction.
  bundle->epoch = next_epoch_.fetch_add(1, std::memory_order_relaxed);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    bytes_ -= it->second.bundle->memory_bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    it->second.bundle = bundle;
  } else {
    lru_.push_front(name);
    entries_[name] = Entry{bundle, lru_.begin()};
  }
  bytes_ += bundle->memory_bytes;
  evicted_reason_.erase(name);
  EnforceBudgetLocked(name, evicted);
}

void ScenarioRegistry::EnforceBudgetLocked(
    const std::string& keep,
    std::vector<std::pair<std::string, std::uint64_t>>* evicted) {
  if (budget_ == 0) return;
  while (bytes_ > budget_ && lru_.size() > 1) {
    const std::string victim = lru_.back();
    if (victim == keep) break;  // never evict the bundle just published
    auto it = entries_.find(victim);
    bytes_ -= it->second.bundle->memory_bytes;
    lru_.pop_back();
    entries_.erase(it);
    evicted_reason_[victim] = "evicted by the memory budget";
    evicted->emplace_back(
        victim, next_epoch_.fetch_add(1, std::memory_order_relaxed));
    evicted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ScenarioRegistry::NotifyEvicted(
    const std::vector<std::pair<std::string, std::uint64_t>>& evicted) {
  if (evicted.empty()) return;
  std::lock_guard<std::mutex> lock(listener_mu_);
  if (!listener_) return;
  for (const auto& [name, epoch] : evicted) listener_(name, epoch);
}

Result<std::shared_ptr<const ScenarioBundle>> ScenarioRegistry::Snapshot(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return MissingLocked(name,
                         "re-register it to serve queries against it again");
  }
  if (budget_ != 0) {
    // LRU freshen; skipped without a budget so unbudgeted lookups stay a
    // pure map find.
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  }
  return it->second.bundle;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::size_t ScenarioRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

RegistryStats ScenarioRegistry::Stats() const {
  RegistryStats stats;
  stats.scenarios_registered = registered_.load(std::memory_order_relaxed);
  stats.scenarios_evicted = evicted_.load(std::memory_order_relaxed);
  stats.scenarios_unregistered =
      unregistered_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.registry_bytes = bytes_;
  stats.scenarios = entries_.size();
  return stats;
}

}  // namespace cdi::serve
