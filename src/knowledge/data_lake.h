#ifndef CDI_KNOWLEDGE_DATA_LAKE_H_
#define CDI_KNOWLEDGE_DATA_LAKE_H_

#include <string>
#include <vector>

#include "common/timer.h"
#include "table/table.h"

namespace cdi::knowledge {

/// A corpus of tables standing in for an open-data lake (data.gov, FRED).
/// Provides the discovery step the paper cites as one join: joinability
/// search by key containment (JOSIE-style), returning the joinable numeric
/// columns aligned for correlation-aware selection (COCOA-style).
class DataLake {
 public:
  /// Nominal latency charged per table scanned (a catalog/API request).
  static constexpr double kSecondsPerTableScan = 0.4;
  static constexpr char kServiceName[] = "data_lake";

  /// Adds a table to the lake (tables should carry distinct names).
  void AddTable(table::Table t) { tables_.push_back(std::move(t)); }

  const std::vector<table::Table>& tables() const { return tables_; }
  std::size_t num_tables() const { return tables_.size(); }

  /// One numeric lake column joined onto the input keys.
  struct JoinedColumn {
    std::size_t table_index = 0;
    std::string key_column;
    std::string value_column;
    /// Fraction of the distinct input keys present in the key column.
    double containment = 0.0;
    /// Row-aligned with the input keys: values[i] is the mean of the
    /// column over the lake rows whose key matches keys[i] (duplicates and
    /// 1:N tables average), NaN when none does.
    std::vector<double> values;
  };

  /// The lake join behind COCOA-style augmentation, done once per
  /// extraction. A string column is joinable when its values contain at
  /// least `min_containment` of the distinct input keys (JOSIE-style
  /// containment). Keys compare after NormalizeEntityName on both sides;
  /// a null or blank key (one that normalizes to "") matches nothing and
  /// does not count toward containment. Returns, for every joinable key
  /// column by descending containment (lake order on ties), every numeric
  /// column of its table aligned to `keys`, in column order. The input keys
  /// are normalized once and each string column once; ranking the result
  /// against a target is the caller's job. Charges one scan per table to
  /// `meter` (none when no input key is usable).
  std::vector<JoinedColumn> JoinNumericColumns(
      const std::vector<std::string>& keys, double min_containment,
      LatencyMeter* meter = nullptr) const;

 private:
  std::vector<table::Table> tables_;
};

}  // namespace cdi::knowledge

#endif  // CDI_KNOWLEDGE_DATA_LAKE_H_
