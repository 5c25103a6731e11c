#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/evaluation.h"
#include "core/knowledge_extractor.h"
#include "datagen/covid.h"
#include "datagen/scenario.h"
#include "knowledge/data_lake.h"
#include "knowledge/entity_linker.h"
#include "knowledge/knowledge_graph.h"
#include "knowledge/text_oracle.h"
#include "knowledge/topic_model.h"

namespace cdi::knowledge {
namespace {

// ---------------------------------------------------------- EntityLinker

TEST(EntityLinkerTest, ResolutionOrder) {
  EntityLinker linker;
  linker.AddEntity("Massachusetts", {"MA"});
  auto exact = linker.Link("Massachusetts");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->method, LinkMethod::kExact);
  auto alias = linker.Link("MA");
  ASSERT_TRUE(alias.ok());
  EXPECT_EQ(alias->canonical, "Massachusetts");
  EXPECT_EQ(alias->method, LinkMethod::kAlias);
  auto norm = linker.Link("  MASSACHUSETTS ");
  ASSERT_TRUE(norm.ok());
  EXPECT_EQ(norm->method, LinkMethod::kNormalized);
  auto fuzzy = linker.Link("Masachusetts");  // typo
  ASSERT_TRUE(fuzzy.ok());
  EXPECT_EQ(fuzzy->method, LinkMethod::kFuzzy);
  EXPECT_GT(fuzzy->confidence, 0.9);
}

TEST(EntityLinkerTest, UnlinkableFails) {
  EntityLinker linker;
  linker.AddEntity("Florida");
  EXPECT_FALSE(linker.Link("zzzz").ok());
}

TEST(EntityLinkerTest, FuzzyThresholdAdjustable) {
  EntityLinker linker;
  linker.AddEntity("California");
  linker.set_fuzzy_threshold(0.99);
  EXPECT_FALSE(linker.Link("Califronia").ok());
  linker.set_fuzzy_threshold(0.85);
  EXPECT_TRUE(linker.Link("Califronia").ok());
}

TEST(EntityLinkerTest, FuzzyMatchUsesPrecomputedNormalizedSurfaces) {
  EntityLinker linker;
  linker.AddEntity("Mississippi", {"MS", "Magnolia State"});
  linker.AddEntity("Missouri", {"MO"});
  linker.AddEntity("Massachusetts", {"MA"});
  // A typo of a canonical, and of an alias, still link fuzzily to the
  // same canonical entity.
  auto typo = linker.Link("Missisippi");
  ASSERT_TRUE(typo.ok());
  EXPECT_EQ(typo->canonical, "Mississippi");
  EXPECT_EQ(typo->method, LinkMethod::kFuzzy);
  auto alias_typo = linker.Link("magnolia stat");
  ASSERT_TRUE(alias_typo.ok());
  EXPECT_EQ(alias_typo->canonical, "Mississippi");
  EXPECT_EQ(alias_typo->method, LinkMethod::kFuzzy);
  auto other = linker.Link("Massachusets");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->canonical, "Massachusetts");
  // A far miss is still NotFound.
  auto miss = linker.Link("Wyoming");
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.status().code(), StatusCode::kNotFound);
}

TEST(EntityLinkerTest, EntitiesListedOnce) {
  EntityLinker linker;
  linker.AddEntity("X", {"x1"});
  linker.AddEntity("X", {"x2"});
  EXPECT_EQ(linker.entities().size(), 1u);
  EXPECT_EQ(linker.Link("x2")->canonical, "X");
}

// -------------------------------------------------------- KnowledgeGraph

KnowledgeGraph SmallKg() {
  KnowledgeGraph kg;
  kg.AddLiteral("Massachusetts", "avg_temp", table::Value(48.14));
  kg.AddLiteral("Massachusetts", "snow_inch", table::Value(51.05));
  kg.AddLiteral("Florida", "avg_temp", table::Value(71.8));
  // Florida has no snow_inch (the paper's "-" cell).
  kg.AddAlias("Massachusetts", "MA");
  kg.AddAlias("Florida", "FL");
  kg.AddLiteral("Maura Healey", "tenure_years", table::Value(2.0));
  kg.AddLink("Massachusetts", "governor", "Maura Healey");
  return kg;
}

TEST(KnowledgeGraphTest, LiteralsAndLinks) {
  KnowledgeGraph kg = SmallKg();
  EXPECT_TRUE(kg.HasEntity("Massachusetts"));
  EXPECT_FALSE(kg.HasEntity("Texas"));
  auto temp = kg.GetLiteral("Massachusetts", "avg_temp");
  ASSERT_TRUE(temp.ok());
  EXPECT_DOUBLE_EQ(temp->as_double(), 48.14);
  EXPECT_FALSE(kg.GetLiteral("Florida", "snow_inch").ok());
  auto gov = kg.GetLink("Massachusetts", "governor");
  ASSERT_TRUE(gov.ok());
  EXPECT_EQ(*gov, "Maura Healey");
  EXPECT_EQ(kg.LiteralProperties("Massachusetts").size(), 2u);
  EXPECT_EQ(kg.LinkProperties("Massachusetts").size(), 1u);
}

TEST(KnowledgeGraphTest, ExtractPropertiesAlignsRows) {
  KnowledgeGraph kg = SmallKg();
  auto t = kg.ExtractProperties({"MA", "FL", "nowhere"}, "state",
                                /*follow_links=*/false, nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_TRUE(t->HasColumn("avg_temp"));
  EXPECT_TRUE(t->HasColumn("snow_inch"));
  EXPECT_DOUBLE_EQ(t->GetCell(0, "avg_temp")->as_double(), 48.14);
  EXPECT_DOUBLE_EQ(t->GetCell(1, "avg_temp")->as_double(), 71.8);
  EXPECT_TRUE(t->GetCell(1, "snow_inch")->is_null());   // missing property
  EXPECT_TRUE(t->GetCell(2, "avg_temp")->is_null());    // unlinkable key
  // Rows align with the keys; the keys themselves are not copied out.
  EXPECT_EQ(t->num_cols(), 2u);
  EXPECT_FALSE(t->HasColumn("state"));
  // A property named like the caller's key column would shadow it.
  EXPECT_EQ(kg.ExtractProperties({"MA"}, "avg_temp", false, nullptr)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(KnowledgeGraphTest, LinkFollowingExtractsSubProperties) {
  KnowledgeGraph kg = SmallKg();
  auto t = kg.ExtractProperties({"MA"}, "state", /*follow_links=*/true,
                                nullptr);
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->HasColumn("governor_tenure_years"));
  EXPECT_DOUBLE_EQ(t->GetCell(0, "governor_tenure_years")->as_double(), 2.0);
}

TEST(KnowledgeGraphTest, LatencyCharged) {
  KnowledgeGraph kg = SmallKg();
  LatencyMeter meter;
  CDI_CHECK(kg.ExtractProperties({"MA", "FL"}, "state", true, &meter).ok());
  EXPECT_GE(meter.Calls(KnowledgeGraph::kServiceName), 2);
  EXPECT_GT(meter.TotalSeconds(), 0.0);
}

// A user-supplied KG can be sparse: here each of 10,000 entities has a
// literal property and a link property of its own (20,000 triples). The
// store keeps each entity's facts, so load and extraction stay linear in
// the triples. A store with a slot per (property, entity) would need
// ~400 MB here, and an extraction that walks every (link, property) pair
// would make 10^8 column checks.
TEST(KnowledgeGraphTest, ManySparsePropertiesLoadAndExtractQuickly) {
  constexpr int kEntities = 10000;
  const auto start = std::chrono::steady_clock::now();
  KnowledgeGraph kg;
  for (int e = 0; e < kEntities; ++e) {
    const std::string id = std::to_string(e);
    kg.AddLiteral("E" + id, "p" + id, table::Value(e));
    kg.AddLink("E" + id, "l" + id, "E" + std::to_string((e + 1) % kEntities));
  }
  std::vector<std::string> keys;
  for (int e = 0; e < kEntities; e += 50) {
    keys.push_back("E" + std::to_string(e));
  }
  LatencyMeter meter;
  auto t = kg.ExtractProperties(keys, "key", /*follow_links=*/true, &meter);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  // One literal per linked entity, one "<link>_<property>" each.
  EXPECT_EQ(t->num_cols(), 2 * keys.size());
  EXPECT_EQ(t->GetCell(1, "p50")->as_int64(), 50);
  EXPECT_TRUE(t->GetCell(0, "p50")->is_null());
  EXPECT_EQ(t->GetCell(1, "l50_p51")->as_int64(), 51);
  EXPECT_TRUE(t->GetCell(2, "l50_p51")->is_null());
  EXPECT_EQ(meter.Calls(KnowledgeGraph::kServiceName),
            static_cast<int64_t>(2 * keys.size()));
  EXPECT_EQ(kg.LiteralProperties("E7"), std::vector<std::string>{"p7"});
  EXPECT_EQ(*kg.GetLink("E9999", "l9999"), "E0");
  // Milliseconds in a release build; the bound only catches a blow-up.
  EXPECT_LT(seconds, 3.0);
}

// -------------------------------------------------------------- DataLake

DataLake SmallLake() {
  DataLake lake;
  {
    table::Table t("population");
    CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                             "state", {"MASSACHUSETTS", "FLORIDA",
                                       "CALIFORNIA"}))
                  .ok());
    CDI_CHECK(t.AddColumn(table::Column::FromDoubles(
                             "pop_density", {901, 402, 254}))
                  .ok());
    lake.AddTable(std::move(t));
  }
  {
    table::Table t("products");
    CDI_CHECK(t.AddColumn(
                   table::Column::FromStrings("sku", {"p1", "p2"}))
                  .ok());
    CDI_CHECK(
        t.AddColumn(table::Column::FromDoubles("price", {9.5, 3.25})).ok());
    lake.AddTable(std::move(t));
  }
  return lake;
}

TEST(DataLakeTest, JoinableByContainment) {
  DataLake lake = SmallLake();
  const std::vector<std::string> keys = {"Massachusetts", "Florida"};
  auto joined = lake.JoinNumericColumns(keys, 0.9);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].table_index, 0u);
  EXPECT_EQ(joined[0].key_column, "state");
  EXPECT_DOUBLE_EQ(joined[0].containment, 1.0);
  // The products table joins only on its own keys.
  joined = lake.JoinNumericColumns({"p1"}, 0.9);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].table_index, 1u);
  EXPECT_EQ(joined[0].value_column, "price");
}

TEST(DataLakeTest, ContainmentThresholdFilters) {
  DataLake lake = SmallLake();
  const std::vector<std::string> keys = {"Massachusetts", "Texas", "Ohio"};
  EXPECT_TRUE(lake.JoinNumericColumns(keys, 0.5).empty());
  EXPECT_EQ(lake.JoinNumericColumns(keys, 0.3).size(), 1u);
}

TEST(DataLakeTest, JoinNumericColumnsAlignsToInputKeys) {
  DataLake lake = SmallLake();
  const std::vector<std::string> keys = {"Massachusetts", "Florida",
                                         "Texas", "california"};
  const auto joined = lake.JoinNumericColumns(keys, 0.5);
  // Only the population table is joinable; its one numeric column comes
  // back row-aligned with `keys`, NaN where no lake key matches.
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0].table_index, 0u);
  EXPECT_EQ(joined[0].key_column, "state");
  EXPECT_EQ(joined[0].value_column, "pop_density");
  EXPECT_DOUBLE_EQ(joined[0].containment, 0.75);
  ASSERT_EQ(joined[0].values.size(), keys.size());
  EXPECT_EQ(joined[0].values[0], 901);
  EXPECT_EQ(joined[0].values[1], 402);
  EXPECT_TRUE(std::isnan(joined[0].values[2]));
  EXPECT_EQ(joined[0].values[3], 254);
  EXPECT_TRUE(lake.JoinNumericColumns(keys, 0.9).empty());
}

TEST(DataLakeTest, JoinNumericColumnsAveragesDuplicateKeys) {
  DataLake lake;
  table::Table t("readings");
  CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                           "site", {"North", "south", "NORTH", "East"}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromDoubles(
                           "level", {1, 5, 3, std::nan("")}))
                .ok());
  CDI_CHECK(t.AddColumn(table::Column::FromInts("count", {10, 20, 30, 40}))
                .ok());
  lake.AddTable(std::move(t));
  const auto joined =
      lake.JoinNumericColumns({"north", "South", "east"}, 0.9);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined[0].value_column, "level");
  EXPECT_EQ(joined[0].values[0], 2.0);  // mean of 1 and 3
  EXPECT_EQ(joined[0].values[1], 5.0);
  EXPECT_TRUE(std::isnan(joined[0].values[2]));  // its only value is null
  EXPECT_EQ(joined[1].value_column, "count");
  EXPECT_EQ(joined[1].values[0], 20.0);
  EXPECT_EQ(joined[1].values[2], 40.0);
}

TEST(DataLakeTest, NullAndBlankKeysNeverJoin) {
  // The extractor passes a null entity cell as "". Such keys, and keys
  // that normalize to "" ("--", "  "), must neither count toward
  // containment nor join onto each other.
  auto make_lake = [](const std::string& fourth_key) {
    DataLake lake;
    table::Table t("greek");
    CDI_CHECK(t.AddColumn(table::Column::FromStrings(
                             "name", {"Alpha", "Beta", "Gamma", fourth_key}))
                  .ok());
    CDI_CHECK(
        t.AddColumn(table::Column::FromDoubles("score", {1, 2, 3, 4})).ok());
    lake.AddTable(std::move(t));
    return lake;
  };
  const std::vector<std::string> keys = {"alpha", "beta", "gamma", "", "  "};

  const DataLake lake = make_lake("Delta");
  const auto with_delta = lake.JoinNumericColumns(keys, 0.5);
  ASSERT_EQ(with_delta.size(), 1u);
  EXPECT_DOUBLE_EQ(with_delta[0].containment, 1.0);

  const auto joined = make_lake("--").JoinNumericColumns(keys, 0.5);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_DOUBLE_EQ(joined[0].containment, 1.0);
  EXPECT_EQ(joined[0].values[0], 1.0);
  EXPECT_EQ(joined[0].values[2], 3.0);
  EXPECT_TRUE(std::isnan(joined[0].values[3]));
  EXPECT_TRUE(std::isnan(joined[0].values[4]));

  // No usable key at all: nothing is scanned.
  LatencyMeter meter;
  EXPECT_TRUE(lake.JoinNumericColumns({"", "--"}, 0.0, &meter).empty());
  EXPECT_EQ(meter.Calls(DataLake::kServiceName), 0);
}

TEST(DataLakeTest, LatencyChargedPerTableScan) {
  DataLake lake = SmallLake();
  LatencyMeter meter;
  lake.JoinNumericColumns({"Massachusetts"}, 0.9, &meter);
  EXPECT_EQ(meter.Calls(DataLake::kServiceName), 2);  // two tables
}

// ------------------------------------------- Differential: indexed sources

/// Every cell of `a` and `b` matches: names, types, nulls, and values bit
/// for bit (doubles by bit pattern, so a non-null NaN must stay one).
void ExpectSameTable(const table::Table& a, const table::Table& b) {
  ASSERT_EQ(a.num_cols(), b.num_cols());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (std::size_t c = 0; c < a.num_cols(); ++c) {
    const table::Column& x = a.ColumnAt(c);
    const table::Column& y = b.ColumnAt(c);
    ASSERT_EQ(x.name(), y.name());
    ASSERT_EQ(x.type(), y.type()) << x.name();
    for (std::size_t r = 0; r < x.size(); ++r) {
      ASSERT_EQ(x.IsNull(r), y.IsNull(r)) << x.name() << " row " << r;
      if (x.IsNull(r)) continue;
      switch (x.type()) {
        case table::DataType::kDouble: {
          const double u = x.NumericAt(r), v = y.NumericAt(r);
          ASSERT_EQ(std::memcmp(&u, &v, sizeof u), 0) << x.name() << " " << r;
          break;
        }
        case table::DataType::kInt64:
          ASSERT_EQ(x.Get(r).as_int64(), y.Get(r).as_int64());
          break;
        case table::DataType::kBool:
          ASSERT_EQ(x.Get(r).as_bool(), y.Get(r).as_bool());
          break;
        case table::DataType::kString:
          ASSERT_EQ(x.StringAt(r), y.StringAt(r)) << x.name() << " " << r;
          break;
      }
    }
  }
}

/// Brute-force reference KG: nested string maps; every row is linked and
/// every cell looked up by name.
struct ReferenceKg {
  std::map<std::string, std::map<std::string, table::Value>> literals;
  std::map<std::string, std::map<std::string, std::string>> links;

  const table::Value* Literal(const std::string& entity,
                              const std::string& property) const {
    auto it = literals.find(entity);
    if (it == literals.end()) return nullptr;
    auto pit = it->second.find(property);
    return pit == it->second.end() ? nullptr : &pit->second;
  }

  const std::string* Link(const std::string& entity,
                          const std::string& property) const {
    auto it = links.find(entity);
    if (it == links.end()) return nullptr;
    auto pit = it->second.find(property);
    return pit == it->second.end() ? nullptr : &pit->second;
  }

  table::Table Extract(const EntityLinker& linker,
                       const std::vector<std::string>& keys,
                       bool follow_links, LatencyMeter* meter) const {
    const std::size_t n = keys.size();
    std::vector<std::string> entity(n);
    std::vector<bool> linked(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      meter->Charge(KnowledgeGraph::kServiceName,
                    KnowledgeGraph::kSecondsPerLookup);
      auto link = linker.Link(keys[i]);
      if (link.ok()) {
        entity[i] = link->canonical;
        linked[i] = true;
      }
    }
    std::set<std::string> literal_cols;
    std::map<std::string, std::set<std::string>> link_cols;
    for (std::size_t i = 0; i < n; ++i) {
      if (!linked[i]) continue;
      auto it = literals.find(entity[i]);
      if (it != literals.end()) {
        for (const auto& [p, v] : it->second) literal_cols.insert(p);
      }
      auto lit = links.find(entity[i]);
      if (!follow_links || lit == links.end()) continue;
      for (const auto& [lp, target] : lit->second) {
        meter->Charge(KnowledgeGraph::kServiceName,
                      KnowledgeGraph::kSecondsPerLookup);
        auto tit = literals.find(target);
        if (tit == literals.end()) continue;
        for (const auto& [sp, v] : tit->second) link_cols[lp].insert(sp);
      }
    }
    std::vector<std::pair<std::string, std::vector<table::Value>>> cols;
    for (const auto& p : literal_cols) {
      std::vector<table::Value> cells(n);
      for (std::size_t i = 0; i < n; ++i) {
        const table::Value* v = linked[i] ? Literal(entity[i], p) : nullptr;
        if (v != nullptr) cells[i] = *v;
      }
      cols.emplace_back(p, std::move(cells));
    }
    for (const auto& [lp, subs] : link_cols) {
      for (const auto& sp : subs) {
        std::vector<table::Value> cells(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::string* t = linked[i] ? Link(entity[i], lp) : nullptr;
          const table::Value* v = t != nullptr ? Literal(*t, sp) : nullptr;
          if (v != nullptr) cells[i] = *v;
        }
        cols.emplace_back(lp + "_" + sp, std::move(cells));
      }
    }
    table::Table out("reference");
    for (auto& [name, cells] : cols) {
      bool s = false, d = false, i64 = false, b = false;
      for (const auto& v : cells) {
        s |= v.is_string();
        d |= v.is_double();
        i64 |= v.is_int64();
        b |= v.is_bool();
      }
      const table::DataType type =
          s ? table::DataType::kString
            : d ? table::DataType::kDouble
                : i64 ? table::DataType::kInt64
                      : b ? table::DataType::kBool : table::DataType::kString;
      table::Column col(name, type);
      for (auto& v : cells) {
        if (type == table::DataType::kString && !v.is_null() &&
            !v.is_string()) {
          v = table::Value(v.ToString());
        } else if (type == table::DataType::kDouble && v.is_bool()) {
          v = table::Value(v.ToNumeric());
        } else if (type == table::DataType::kInt64 && v.is_bool()) {
          v = table::Value(static_cast<int64_t>(v.as_bool() ? 1 : 0));
        }
        CDI_CHECK(col.Append(std::move(v)).ok());
      }
      CDI_CHECK(out.AddColumn(std::move(col)).ok());
    }
    return out;
  }
};

/// Brute-force reference lake join: every key normalized per call, every
/// input row's mean summed over the whole lake table in row order.
std::vector<DataLake::JoinedColumn> ReferenceJoin(
    const std::vector<table::Table>& tables,
    const std::vector<std::string>& keys, double min_containment,
    LatencyMeter* meter) {
  std::vector<std::string> norm(keys.size());
  std::set<std::string> usable;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    norm[i] = NormalizeEntityName(keys[i]);
    if (!norm[i].empty()) usable.insert(norm[i]);
  }
  std::vector<DataLake::JoinedColumn> out;
  if (usable.empty()) return out;
  struct Hit {
    std::size_t table, column;
    double containment;
  };
  std::vector<Hit> hits;
  auto lake_key = [](const table::Column& col, std::size_t r) {
    return col.IsNull(r) ? std::string() : NormalizeEntityName(col.StringAt(r));
  };
  for (std::size_t t = 0; t < tables.size(); ++t) {
    meter->Charge(DataLake::kServiceName, DataLake::kSecondsPerTableScan);
    for (std::size_t c = 0; c < tables[t].num_cols(); ++c) {
      const table::Column& col = tables[t].ColumnAt(c);
      if (col.type() != table::DataType::kString) continue;
      std::set<std::string> values;
      for (std::size_t r = 0; r < col.size(); ++r) {
        if (!lake_key(col, r).empty()) values.insert(lake_key(col, r));
      }
      std::size_t found = 0;
      for (const auto& k : usable) found += values.count(k);
      const double containment =
          static_cast<double>(found) / static_cast<double>(usable.size());
      if (containment >= min_containment) hits.push_back({t, c, containment});
    }
  }
  std::stable_sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.containment > b.containment;
  });
  for (const Hit& h : hits) {
    const table::Table& t = tables[h.table];
    const table::Column& key_col = t.ColumnAt(h.column);
    for (std::size_t c = 0; c < t.num_cols(); ++c) {
      const table::Column& col = t.ColumnAt(c);
      if (!table::IsNumeric(col.type())) continue;
      DataLake::JoinedColumn jc;
      jc.table_index = h.table;
      jc.key_column = key_col.name();
      jc.value_column = col.name();
      jc.containment = h.containment;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        double sum = 0, count = 0;
        for (std::size_t r = 0; r < t.num_rows() && !norm[i].empty(); ++r) {
          if (lake_key(key_col, r) != norm[i] || col.IsNull(r)) continue;
          sum += col.NumericAt(r);
          count += 1;
        }
        jc.values.push_back(count > 0 ? sum / count : std::nan(""));
      }
      out.push_back(std::move(jc));
    }
  }
  return out;
}

/// A random two-word name ("Kalo Mirabel").
std::string RandomName(Rng& rng) {
  static const char* const kSyllables[] = {"ka", "lo", "mi", "ra", "ten",
                                           "vos", "dur", "bel", "an", "sho"};
  std::string name;
  for (int w = 0; w < 2; ++w) {
    if (w > 0) name += ' ';
    std::string word;
    const int len = 2 + static_cast<int>(rng.UniformInt(uint64_t{2}));
    for (int k = 0; k < len; ++k) {
      word += kSyllables[rng.UniformInt(uint64_t{10})];
    }
    word[0] = static_cast<char>(word[0] - 'a' + 'A');
    name += word;
  }
  return name;
}

/// A random literal of property kind `kind`: 0 double (sometimes a non-null
/// NaN), 1 int64, 2 bool, 3 string, 4 mixed string/double/int/bool, 5
/// mixed int/bool, 6 mixed double/int/bool, 7 sometimes an explicit null.
table::Value RandomLiteral(Rng& rng, int kind) {
  const int pick = static_cast<int>(rng.UniformInt(uint64_t{4}));
  switch (kind) {
    case 0:
      return rng.Bernoulli(0.1) ? table::Value(std::nan(""))
                                : table::Value(rng.Normal());
    case 1:
      return table::Value(rng.UniformInt(int64_t{-50}, int64_t{50}));
    case 2:
      return table::Value(rng.Bernoulli(0.5));
    case 3:
      return table::Value("s" + std::to_string(rng.UniformInt(uint64_t{5})));
    case 4:
      if (pick == 0) return table::Value("word");
      if (pick == 1) return table::Value(rng.Normal());
      if (pick == 2) return table::Value(int64_t{7});
      return table::Value(true);
    case 5:
      return pick < 2 ? table::Value(int64_t{pick + 3})
                      : table::Value(pick == 2);
    case 6:
      if (pick == 0) return table::Value(1.25 * rng.Normal());
      if (pick == 1) return table::Value(int64_t{-4});
      return table::Value(pick == 2);
    default:
      return rng.Bernoulli(0.3) ? table::Value() : table::Value(rng.Normal());
  }
}

/// A surface form of `name`: verbatim, re-cased and padded (links by
/// normalization), or with one interior character dropped (fuzzy).
std::string SurfaceOf(Rng& rng, const std::string& name) {
  switch (rng.UniformInt(uint64_t{3})) {
    case 0:
      return name;
    case 1: {
      std::string upper = name;
      for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
      return "  " + upper + " ";
    }
    default: {
      std::string typo = name;
      typo.erase(4 + rng.UniformInt(uint64_t{typo.size() - 5}), 1);
      return typo;
    }
  }
}

TEST(IndexedSourcesTest, ExtractAndJoinMatchBruteForceReference) {
  // Keys per link outcome (exact, alias, normalized, fuzzy, unlinked),
  // over all seeds: every outcome must be exercised.
  std::size_t outcomes[5] = {0, 0, 0, 0, 0};
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::string> entities, capitals;
    for (int i = 0; i < 14; ++i) entities.push_back(RandomName(rng));
    for (int i = 0; i < 6; ++i) capitals.push_back("Cap " + RandomName(rng));

    KnowledgeGraph kg;
    ReferenceKg ref;
    std::vector<std::string> aliases;
    auto literal = [&](const std::string& e, const std::string& p,
                       const table::Value& v) {
      kg.AddLiteral(e, p, v);
      ref.literals[e][p] = v;
    };
    auto link = [&](const std::string& e, const std::string& p,
                    const std::string& t) {
      kg.AddLink(e, p, t);
      ref.links[e][p] = t;
    };
    for (std::size_t e = 0; e < entities.size(); ++e) {
      for (int k = 0; k < 8; ++k) {
        if (!rng.Bernoulli(0.55)) continue;
        const std::string p = "p" + std::to_string(k);
        literal(entities[e], p, RandomLiteral(rng, k));
        // A re-added value replaces the first.
        if (rng.Bernoulli(0.2)) literal(entities[e], p, RandomLiteral(rng, k));
      }
      for (const char* lp : {"capital", "partner"}) {
        const double u = rng.Uniform();
        if (u < 0.4) {
          link(entities[e], lp, capitals[rng.UniformInt(capitals.size())]);
        } else if (u < 0.6) {
          link(entities[e], lp, "Ghost " + std::to_string(e));  // dangling
        } else if (u < 0.75) {
          link(entities[e], lp, entities[rng.UniformInt(entities.size())]);
        }
      }
      if (rng.Bernoulli(0.5)) {
        aliases.push_back("AL" + std::to_string(seed) + "x" +
                          std::to_string(e));
        kg.AddAlias(entities[e], aliases.back());
      }
    }
    for (const auto& c : capitals) {
      literal(c, "elevation", table::Value(rng.Uniform(0, 900)));
      if (rng.Bernoulli(0.5)) literal(c, "p1", RandomLiteral(rng, 1));
      if (rng.Bernoulli(0.3)) literal(c, "founded", RandomLiteral(rng, 4));
    }

    // Input keys: exact, alias, normalized and fuzzy surfaces, unlinked
    // keys, and null ("") and blank keys.
    std::vector<std::string> keys;
    for (int i = 0; i < 70; ++i) {
      const double u = rng.Uniform();
      const std::string& e = entities[rng.UniformInt(entities.size())];
      if (u < 0.55) {
        keys.push_back(SurfaceOf(rng, e));
      } else if (u < 0.65 && !aliases.empty()) {
        keys.push_back(aliases[rng.UniformInt(aliases.size())]);
      } else if (u < 0.75) {
        keys.push_back(capitals[rng.UniformInt(capitals.size())]);
      } else if (u < 0.85) {
        keys.push_back("Zq" + std::to_string(rng.UniformInt(uint64_t{4})));
      } else {
        keys.push_back(rng.Bernoulli(0.5) ? "" : " -- ");
      }
    }

    for (const auto& key : keys) {
      auto linked = kg.linker().Link(key);
      ++outcomes[linked.ok() ? static_cast<int>(linked->method) : 4];
    }
    for (const bool follow : {false, true}) {
      LatencyMeter meter, ref_meter;
      auto got = kg.ExtractProperties(keys, "key", follow, &meter);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const table::Table want =
          ref.Extract(kg.linker(), keys, follow, &ref_meter);
      ExpectSameTable(*got, want);
      EXPECT_EQ(meter.Calls(KnowledgeGraph::kServiceName),
                ref_meter.Calls(KnowledgeGraph::kServiceName));
      EXPECT_EQ(meter.Seconds(KnowledgeGraph::kServiceName),
                ref_meter.Seconds(KnowledgeGraph::kServiceName));
    }

    // The lake: key columns over entity surfaces with duplicates, null and
    // blank cells; double (with nulls and NaN), int64 and bool columns.
    DataLake lake;
    std::vector<table::Table> tables;
    const std::size_t num_tables = 3 + rng.UniformInt(uint64_t{2});
    for (std::size_t t = 0; t < num_tables; ++t) {
      const std::size_t rows = 10 + rng.UniformInt(uint64_t{20});
      table::Column key("key", table::DataType::kString);
      table::Column other("other", table::DataType::kString);
      table::Column dbl("dbl" + std::to_string(t), table::DataType::kDouble);
      table::Column i64("int" + std::to_string(t), table::DataType::kInt64);
      table::Column flag("flag" + std::to_string(t), table::DataType::kBool);
      for (std::size_t r = 0; r < rows; ++r) {
        const double u = rng.Uniform();
        if (u < 0.1) {
          key.AppendNull();
        } else if (u < 0.15) {
          ASSERT_TRUE(key.AppendString("--").ok());
        } else {
          const auto& e = entities[rng.UniformInt(entities.size())];
          ASSERT_TRUE(
              key.AppendString(rng.Bernoulli(0.5) ? e : SurfaceOf(rng, e))
                  .ok());
        }
        const std::string& capital = capitals[rng.UniformInt(capitals.size())];
        ASSERT_TRUE(other
                        .AppendString(rng.Bernoulli(0.5)
                                          ? capital
                                          : "o" + std::to_string(r % 3))
                        .ok());
        const double v = rng.Uniform();
        if (v < 0.15) {
          dbl.AppendNull();
        } else {
          ASSERT_TRUE(
              dbl.AppendDouble(v < 0.2 ? std::nan("") : rng.Normal()).ok());
        }
        if (rng.Bernoulli(0.1)) {
          i64.AppendNull();
        } else {
          ASSERT_TRUE(
              i64.AppendInt64(rng.UniformInt(int64_t{-9}, int64_t{9})).ok());
        }
        ASSERT_TRUE(flag.AppendBool(rng.Bernoulli(0.5)).ok());
      }
      table::Table table("lake" + std::to_string(t));
      for (auto* col : {&key, &dbl, &other, &i64, &flag}) {
        ASSERT_TRUE(table.AddColumn(std::move(*col)).ok());
      }
      tables.push_back(table);
      // A renamed copy ties on containment with its original.
      if (t == 0) {
        table::Table copy = table;
        copy.set_name("lake_copy");
        tables.push_back(std::move(copy));
      }
    }
    for (const auto& t : tables) lake.AddTable(t);
    for (const double min_containment : {0.0, 0.3, 0.6}) {
      LatencyMeter meter, ref_meter;
      const auto got = lake.JoinNumericColumns(keys, min_containment, &meter);
      const auto want =
          ReferenceJoin(tables, keys, min_containment, &ref_meter);
      ASSERT_EQ(got.size(), want.size()) << "min " << min_containment;
      for (std::size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[j].table_index, want[j].table_index);
        EXPECT_EQ(got[j].key_column, want[j].key_column);
        EXPECT_EQ(got[j].value_column, want[j].value_column);
        EXPECT_EQ(got[j].containment, want[j].containment);
        ASSERT_EQ(got[j].values.size(), keys.size());
        EXPECT_EQ(std::memcmp(got[j].values.data(), want[j].values.data(),
                              keys.size() * sizeof(double)),
                  0)
            << got[j].value_column;
      }
      EXPECT_EQ(meter.Calls(DataLake::kServiceName),
                ref_meter.Calls(DataLake::kServiceName));
    }
  }
  for (const std::size_t count : outcomes) EXPECT_GT(count, 0u);
}

// ------------------------------------------------------ KnowledgeExtractor

std::unique_ptr<datagen::Scenario> SmallCovid() {
  auto spec = datagen::CovidSpec();
  spec.num_entities = 80;
  auto built = datagen::BuildScenario(spec);
  CDI_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

TEST(KnowledgeExtractorTest, CancelledTokenFailsWithoutPartialResult) {
  const auto sc = SmallCovid();
  const core::KnowledgeExtractor extractor(
      &sc->kg, &sc->lake, core::DefaultEvaluationOptions(*sc).extractor);
  CancelToken token;
  token.Cancel();
  auto got = extractor.Extract(sc->input_table, sc->spec.entity_column,
                               sc->exposure_attribute, sc->outcome_attribute,
                               nullptr, &token);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  // A live token changes nothing.
  CancelToken live;
  EXPECT_TRUE(extractor
                  .Extract(sc->input_table, sc->spec.entity_column,
                           sc->exposure_attribute, sc->outcome_attribute,
                           nullptr, &live)
                  .ok());
}

// Four threads extract from one shared scenario at once. The KG and lake
// indexes are built at load and only read afterwards (this test runs
// under ThreadSanitizer in CI), and every thread gets the serial answer.
TEST(KnowledgeExtractorTest, ConcurrentExtractsShareOneScenario) {
  const auto sc = SmallCovid();
  const core::KnowledgeExtractor extractor(
      &sc->kg, &sc->lake, core::DefaultEvaluationOptions(*sc).extractor);
  auto extract = [&](LatencyMeter* meter) {
    auto got = extractor.Extract(sc->input_table, sc->spec.entity_column,
                                 sc->exposure_attribute,
                                 sc->outcome_attribute, meter);
    CDI_CHECK(got.ok()) << got.status().ToString();
    return std::move(got).value();
  };
  LatencyMeter serial_meter;
  const core::ExtractionResult serial = extract(&serial_meter);
  ASSERT_GT(serial.kg_columns_found, 0u);
  ASSERT_GT(serial.lake_columns_found, 0u);

  constexpr int kThreads = 4;
  std::vector<core::ExtractionResult> results(kThreads);
  std::vector<LatencyMeter> meters(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 3; ++rep) {
        meters[t].Clear();
        results[t] = extract(&meters[t]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ExpectSameTable(results[t].augmented, serial.augmented);
    ASSERT_EQ(results[t].attributes.size(), serial.attributes.size());
    for (std::size_t a = 0; a < serial.attributes.size(); ++a) {
      EXPECT_EQ(results[t].attributes[a].name, serial.attributes[a].name);
      EXPECT_EQ(results[t].attributes[a].kept, serial.attributes[a].kept);
    }
    EXPECT_EQ(meters[t].entries().size(), serial_meter.entries().size());
    EXPECT_EQ(meters[t].Calls(KnowledgeGraph::kServiceName),
              serial_meter.Calls(KnowledgeGraph::kServiceName));
    EXPECT_EQ(meters[t].Calls(DataLake::kServiceName),
              serial_meter.Calls(DataLake::kServiceName));
  }
}

// ------------------------------------------------------- TextCausalOracle

graph::Digraph World() {
  graph::Digraph g({"weather", "congestion", "delay"});
  CDI_CHECK(g.AddEdge("weather", "congestion").ok());
  CDI_CHECK(g.AddEdge("congestion", "delay").ok());
  return g;
}

TEST(TextOracleTest, PerfectOracleMatchesWorldEdges) {
  OracleOptions options;
  options.direct_recall = 1.0;
  options.transitive_claim_prob = 0.0;
  options.reverse_claim_prob = 0.0;
  options.unrelated_claim_prob = 0.0;
  TextCausalOracle oracle(World(), options);
  EXPECT_TRUE(oracle.DoesCause("weather", "congestion"));
  EXPECT_TRUE(oracle.DoesCause("congestion", "delay"));
  EXPECT_FALSE(oracle.DoesCause("weather", "delay"));      // transitive
  EXPECT_FALSE(oracle.DoesCause("delay", "weather"));      // reverse
}

TEST(TextOracleTest, TransitiveConfusionFailureMode) {
  OracleOptions options;
  options.direct_recall = 1.0;
  options.transitive_claim_prob = 1.0;
  options.reverse_claim_prob = 0.0;
  options.unrelated_claim_prob = 0.0;
  TextCausalOracle oracle(World(), options);
  // The paper's observed GPT-3 behaviour: indirect claimed as direct.
  EXPECT_TRUE(oracle.DoesCause("weather", "delay"));
}

TEST(TextOracleTest, DeterministicAnswers) {
  OracleOptions options;
  TextCausalOracle a(World(), options), b(World(), options);
  for (const char* x : {"weather", "congestion", "delay"}) {
    for (const char* y : {"weather", "congestion", "delay"}) {
      EXPECT_EQ(a.DoesCause(x, y), b.DoesCause(x, y));
    }
  }
  // Different seed can change answers on noisy pairs.
  options.seed = 999;
  options.unrelated_claim_prob = 0.5;
  TextCausalOracle c(World(), options);
  (void)c;  // construction only; determinism per-seed is the contract
}

TEST(TextOracleTest, AliasResolution) {
  OracleOptions options;
  options.direct_recall = 1.0;
  options.unknown_concept_claim_prob = 0.0;
  TextCausalOracle oracle(World(), options);
  EXPECT_FALSE(oracle.DoesCause("Avg Temp", "congestion"));
  oracle.RegisterAlias("Avg Temp", "weather");
  EXPECT_TRUE(oracle.DoesCause("Avg Temp", "congestion"));
}

TEST(TextOracleTest, UnknownConceptsMostlyNo) {
  OracleOptions options;
  options.unknown_concept_claim_prob = 0.0;
  TextCausalOracle oracle(World(), options);
  EXPECT_FALSE(oracle.DoesCause("quasar", "delay"));
}

TEST(TextOracleTest, PreferredDirectionFollowsWorld) {
  OracleOptions options;
  TextCausalOracle oracle(World(), options);
  EXPECT_EQ(oracle.PreferredDirection("weather", "congestion"), 1);
  EXPECT_EQ(oracle.PreferredDirection("congestion", "weather"), -1);
  EXPECT_EQ(oracle.PreferredDirection("weather", "delay"), 1);  // path
  EXPECT_EQ(oracle.PreferredDirection("quasar", "delay"), 0);
}

TEST(TextOracleTest, QueryAllPairsCountsAndMeter) {
  OracleOptions options;
  options.seconds_per_query = 2.0;
  TextCausalOracle oracle(World(), options);
  LatencyMeter meter;
  const auto g = oracle.QueryAllPairs({"weather", "congestion", "delay"},
                                      &meter);
  EXPECT_EQ(oracle.query_count(), 6u);
  EXPECT_DOUBLE_EQ(meter.Seconds(TextCausalOracle::kServiceName), 12.0);
  EXPECT_EQ(g.num_nodes(), 3u);
}

// ------------------------------------------------------------ TopicModel

TEST(TopicModelTest, AssignsBestTopic) {
  TopicModel topics;
  topics.AddTopic("weather", {"temp", "snow", "wind"});
  topics.AddTopic("population", {"pop", "density"});
  EXPECT_EQ(topics.AssignTopic({"avg_temp", "snow_inch"}), "weather");
  EXPECT_EQ(topics.AssignTopic({"pop_size", "pop_density"}), "population");
}

TEST(TopicModelTest, MultiKeywordBeatsGenericHit) {
  TopicModel topics;
  topics.AddTopic("spread", {"cases", "confirmed"});
  topics.AddTopic("recovery", {"recovered", "recovered_cases"});
  EXPECT_EQ(topics.AssignTopic({"recovered_cases"}), "recovery");
}

TEST(TopicModelTest, FallbackToAttributeName) {
  TopicModel topics;
  topics.AddTopic("weather", {"temp"});
  EXPECT_EQ(topics.AssignTopic({"mystery_attr"}), "mystery_attr");
  EXPECT_EQ(topics.AssignTopic({}), "unknown");
}

TEST(TopicModelTest, MeterCharged) {
  TopicModel topics;
  topics.AddTopic("weather", {"temp"});
  LatencyMeter meter;
  topics.AssignTopic({"avg_temp"}, &meter);
  EXPECT_EQ(meter.Calls(TopicModel::kServiceName), 1);
}

}  // namespace
}  // namespace cdi::knowledge
