#include "knowledge/data_lake.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/string_util.h"

namespace cdi::knowledge {

void DataLake::AddTable(table::Table t) {
  std::vector<KeyColumn> key_columns;
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    const table::Column& col = t.ColumnAt(c);
    if (col.type() != table::DataType::kString) continue;
    KeyColumn kc;
    kc.column = c;
    kc.row_key.assign(col.size(), kNone);
    for (std::size_t r = 0; r < col.size(); ++r) {
      if (col.IsNull(r)) continue;
      std::string key = NormalizeEntityName(col.StringAt(r));
      if (key.empty()) continue;
      kc.row_key[r] =
          key_id_
              .try_emplace(std::move(key),
                           static_cast<uint32_t>(key_id_.size()))
              .first->second;
    }
    key_columns.push_back(std::move(kc));
  }
  tables_.push_back(std::move(t));
  key_columns_.push_back(std::move(key_columns));
}

std::vector<DataLake::JoinedColumn> DataLake::JoinNumericColumns(
    const std::vector<std::string>& keys, double min_containment,
    LatencyMeter* meter) const {
  // Normalize each distinct input key once. row_input[i] numbers row i's
  // usable normalized key (kNone for a null or blank one), `num_inputs`
  // counts them, and input_of[k] is the number of lake key k (kNone when
  // no input key normalizes to it).
  std::vector<uint32_t> row_input(keys.size(), kNone);
  std::vector<uint32_t> input_of(key_id_.size(), kNone);
  uint32_t num_inputs = 0;
  {
    std::unordered_map<std::string_view, uint32_t> number_of_raw;
    std::unordered_map<std::string, uint32_t> number_of_norm;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto [it, fresh] = number_of_raw.try_emplace(keys[i], kNone);
      if (fresh) {
        std::string norm = NormalizeEntityName(keys[i]);
        if (!norm.empty()) {
          auto lake = key_id_.find(norm);
          auto [nit, added] =
              number_of_norm.try_emplace(std::move(norm), num_inputs);
          if (added) {
            if (lake != key_id_.end()) input_of[lake->second] = num_inputs;
            ++num_inputs;
          }
          it->second = nit->second;
        }
      }
      row_input[i] = it->second;
    }
  }
  std::vector<JoinedColumn> out;
  if (num_inputs == 0) return out;

  // ---- Joinability: containment of the input keys per key column. -------
  struct Joinable {
    std::size_t table_index;
    const KeyColumn* key;
    double containment;
  };
  std::vector<Joinable> joinable;
  // counted_in[d]: the last key column (by scan number) that counted
  // input key d.
  std::vector<uint32_t> counted_in(num_inputs, kNone);
  uint32_t scan = 0;
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (meter != nullptr) meter->Charge(kServiceName, kSecondsPerTableScan);
    for (const KeyColumn& kc : key_columns_[t]) {
      std::size_t hits = 0;
      for (const uint32_t k : kc.row_key) {
        const uint32_t d = k == kNone ? kNone : input_of[k];
        if (d == kNone || counted_in[d] == scan) continue;
        counted_in[d] = scan;
        ++hits;
      }
      ++scan;
      const double containment =
          static_cast<double>(hits) / static_cast<double>(num_inputs);
      if (containment >= min_containment) {
        joinable.push_back({t, &kc, containment});
      }
    }
  }
  std::stable_sort(joinable.begin(), joinable.end(),
                   [](const Joinable& a, const Joinable& b) {
                     return a.containment > b.containment;
                   });

  // ---- Alignment: average each numeric column per input key, in lake
  // row order, and gather the means per input row. ----------------------
  std::vector<double> sum, count;
  for (const Joinable& j : joinable) {
    const table::Table& t = tables_[j.table_index];
    const std::vector<uint32_t>& row_key = j.key->row_key;
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      const table::Column& col = t.ColumnAt(c);
      if (!table::IsNumeric(col.type())) continue;
      sum.assign(num_inputs, 0.0);
      count.assign(num_inputs, 0.0);
      for (std::size_t r = 0; r < col.size(); ++r) {
        const uint32_t d = row_key[r] == kNone ? kNone : input_of[row_key[r]];
        if (d == kNone || col.IsNull(r)) continue;
        sum[d] += col.NumericAt(r);
        count[d] += 1;
      }
      JoinedColumn jc;
      jc.table_index = j.table_index;
      jc.key_column = t.ColumnAt(j.key->column).name();
      jc.value_column = col.name();
      jc.containment = j.containment;
      jc.values.assign(keys.size(), std::nan(""));
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const uint32_t d = row_input[i];
        if (d != kNone && count[d] > 0) jc.values[i] = sum[d] / count[d];
      }
      out.push_back(std::move(jc));
    }
  }
  return out;
}

}  // namespace cdi::knowledge
