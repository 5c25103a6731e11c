#ifndef CDI_KNOWLEDGE_DATA_LAKE_H_
#define CDI_KNOWLEDGE_DATA_LAKE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "table/table.h"

namespace cdi::knowledge {

/// A corpus of tables standing in for an open-data lake (data.gov, FRED).
/// Provides the discovery step the paper cites as one join: joinability
/// search by key containment (JOSIE-style), returning the joinable numeric
/// columns aligned for correlation-aware selection (COCOA-style).
///
/// Each table's key side is indexed when it is added: every distinct
/// normalized key of the lake gets one lake-wide id, and every string
/// column keeps its rows' key ids. A join normalizes and looks up only the
/// distinct input keys, then counts containment and averages values in
/// one pass over each column's key ids, with no hashing. The lake is
/// read-only after load: concurrent joins share it without locks.
class DataLake {
 public:
  /// Nominal latency charged per table scanned (a catalog/API request).
  static constexpr double kSecondsPerTableScan = 0.4;
  static constexpr char kServiceName[] = "data_lake";

  /// Adds a table to the lake (tables should carry distinct names) and
  /// indexes its string columns as join keys.
  void AddTable(table::Table t);

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
  /// column of its table aligned to `keys`, in column order. Each distinct
  /// input key is normalized once; ranking the result against a target is
  /// the caller's job. Charges one scan per table to `meter` (none when no
  /// input key is usable).
  std::vector<JoinedColumn> JoinNumericColumns(
      const std::vector<std::string>& keys, double min_containment,
      LatencyMeter* meter = nullptr) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// One string column of a lake table as a join key: row_key[r] is the
  /// lake-wide id of row r's normalized key, kNone for a null or blank
  /// cell, which joins nothing.
  struct KeyColumn {
    std::size_t column = 0;
    std::vector<uint32_t> row_key;
  };

  std::vector<table::Table> tables_;
  /// key_columns_[t]: the string columns of tables_[t], in column order.
  std::vector<std::vector<KeyColumn>> key_columns_;
  /// Lake-wide id of every normalized key in any string column.
  std::unordered_map<std::string, uint32_t> key_id_;
};

}  // namespace cdi::knowledge

#endif  // CDI_KNOWLEDGE_DATA_LAKE_H_
