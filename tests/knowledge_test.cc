#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
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
  EXPECT_EQ(t->GetCell(2, "state")->as_string(), "nowhere");
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
