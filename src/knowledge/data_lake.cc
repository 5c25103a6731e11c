#include "knowledge/data_lake.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"

namespace cdi::knowledge {

std::vector<DataLake::JoinedColumn> DataLake::JoinNumericColumns(
    const std::vector<std::string>& keys, double min_containment,
    LatencyMeter* meter) const {
  std::vector<std::string> norm_keys;
  norm_keys.reserve(keys.size());
  std::unordered_set<std::string> key_set;
  for (const auto& k : keys) {
    norm_keys.push_back(NormalizeEntityName(k));
    if (!norm_keys.back().empty()) key_set.insert(norm_keys.back());
  }
  std::vector<JoinedColumn> out;
  if (key_set.empty()) return out;

  // ---- Joinability: containment of the input keys per string column. ----
  // A joinable column keeps its rows' normalized keys ("" for a null or
  // blank cell, which never joins) for the alignment below.
  struct Joinable {
    std::size_t table_index;
    const table::Column* key_col;
    double containment;
    std::vector<std::string> row_keys;
  };
  std::vector<Joinable> joinable;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerTableScan);
    for (std::size_t c = 0; c < tables_[t].num_cols(); ++c) {
      const table::Column& col = tables_[t].ColumnAt(c);
      if (col.type() != table::DataType::kString) continue;
      std::vector<std::string> row_keys(col.size());
      std::unordered_set<std::string> values;
      for (std::size_t r = 0; r < col.size(); ++r) {
        if (col.IsNull(r)) continue;
        row_keys[r] = NormalizeEntityName(col.StringAt(r));
        if (!row_keys[r].empty()) values.insert(row_keys[r]);
      }
      std::size_t hits = 0;
      for (const auto& k : key_set) hits += values.count(k);
      const double containment =
          static_cast<double>(hits) / static_cast<double>(key_set.size());
      if (containment >= min_containment) {
        joinable.push_back({t, &col, containment, std::move(row_keys)});
      }
    }
  }
  std::stable_sort(joinable.begin(), joinable.end(),
                   [](const Joinable& a, const Joinable& b) {
                     return a.containment > b.containment;
                   });

  // ---- Alignment: mean of each numeric column per input key. -------------
  constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);
  for (const Joinable& j : joinable) {
    const table::Table& t = tables_[j.table_index];
    // Group the lake rows by key, and map each input row to its group.
    std::unordered_map<std::string, std::size_t> group_of;
    std::vector<std::size_t> row_group(t.num_rows(), kNoGroup);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      if (j.row_keys[r].empty()) continue;
      row_group[r] =
          group_of.emplace(j.row_keys[r], group_of.size()).first->second;
    }
    std::vector<std::size_t> key_group(norm_keys.size(), kNoGroup);
    for (std::size_t i = 0; i < norm_keys.size(); ++i) {
      auto it = group_of.find(norm_keys[i]);
      if (it != group_of.end()) key_group[i] = it->second;
    }
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      const table::Column& col = t.ColumnAt(c);
      if (!table::IsNumeric(col.type())) continue;
      std::vector<double> sum(group_of.size(), 0.0);
      std::vector<double> count(group_of.size(), 0.0);
      for (std::size_t r = 0; r < t.num_rows(); ++r) {
        if (row_group[r] == kNoGroup || col.IsNull(r)) continue;
        sum[row_group[r]] += col.NumericAt(r);
        count[row_group[r]] += 1;
      }
      JoinedColumn jc;
      jc.table_index = j.table_index;
      jc.key_column = j.key_col->name();
      jc.value_column = col.name();
      jc.containment = j.containment;
      jc.values.assign(keys.size(), std::nan(""));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::size_t g = key_group[i];
        if (g != kNoGroup && count[g] > 0) jc.values[i] = sum[g] / count[g];
      }
      out.push_back(std::move(jc));
    }
  }
  return out;
}

}  // namespace cdi::knowledge
