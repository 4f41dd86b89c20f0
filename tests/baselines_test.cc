#include <gtest/gtest.h>

#include "baselines/best_static.h"
#include "baselines/exact_stats.h"
#include "baselines/relopt.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace dyno {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : catalog_(&dfs_), engine_(&dfs_, MakeConfig()) {
    TpchConfig config;
    config.scale = 0.0004;
    config.split_bytes = 8 * 1024;
    EXPECT_TRUE(GenerateTpch(&catalog_, config).ok());
  }

  static ClusterConfig MakeConfig() {
    ClusterConfig config;
    config.job_startup_ms = 2000;
    config.memory_per_task_bytes = 64 * 1024;
    return config;
  }

  CostModelParams Cost() {
    CostModelParams cost;
    cost.max_memory_bytes = MakeConfig().memory_per_task_bytes;
    cost.memory_factor = 1.5;
    return cost;
  }

  Dfs dfs_;
  Catalog catalog_;
  MapReduceEngine engine_;
};

TEST_F(BaselinesTest, ExactLeafStatsMatchOracle) {
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = Eq(Col("o_channel"), LitString("web"));
  leaf.join_columns = {"o_custkey"};
  auto stats = ComputeExactLeafStats(&catalog_, leaf);
  ASSERT_TRUE(stats.ok());
  // Count by brute force.
  auto file = catalog_.OpenTable("orders");
  ASSERT_TRUE(file.ok());
  auto rows = ReadAllRows(**file);
  ASSERT_TRUE(rows.ok());
  int expected = 0;
  for (const Value& row : *rows) {
    if (row.FindField("o_channel")->string_value() == "web") ++expected;
  }
  EXPECT_DOUBLE_EQ(stats->cardinality, expected);
  EXPECT_LE(stats->columns.at("o_custkey").ndv, stats->cardinality);
}

TEST_F(BaselinesTest, RelOptHistogramEstimatesSimplePredicates) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  ASSERT_TRUE(relopt.AnalyzeTable("orders", {"o_orderdate", "o_custkey"})
                  .ok());
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = And(Ge(Col("o_orderdate"), LitInt(19950101)),
                    Le(Col("o_orderdate"), LitInt(19961231)));
  leaf.join_columns = {"o_custkey"};
  auto stats = relopt.EstimateLeaf(leaf);
  ASSERT_TRUE(stats.ok());
  // ~2 of 7 years selected.
  auto exact = ComputeExactLeafStats(&catalog_, leaf);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(stats->cardinality, exact->cardinality,
              0.35 * exact->cardinality);
}

TEST_F(BaselinesTest, RelOptUnderestimatesCorrelatedPredicates) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  ASSERT_TRUE(
      relopt.AnalyzeTable("orders", {"o_channel", "o_clerk_group"}).ok());
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = And(Eq(Col("o_channel"), LitString("web")),
                    Eq(Col("o_clerk_group"), LitInt(3)));
  leaf.join_columns = {};
  auto est = relopt.EstimateLeaf(leaf);
  auto exact = ComputeExactLeafStats(&catalog_, leaf);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(exact.ok());
  // Independence predicts ~1/25; reality is ~1/5 (95% correlation): the
  // estimate must be several times below the truth.
  EXPECT_LT(est->cardinality, 0.5 * exact->cardinality);
}

TEST_F(BaselinesTest, RelOptBlindToUdfSelectivity) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  ASSERT_TRUE(relopt.AnalyzeTable("part", {"p_partkey"}).ok());
  LeafExpr leaf;
  leaf.alias = "p";
  leaf.table = "part";
  leaf.filter = MakeHashFilterUdf("sel01", {"p_partkey"}, 0.01, 10.0);
  leaf.join_columns = {"p_partkey"};
  auto est = relopt.EstimateLeaf(leaf);
  ASSERT_TRUE(est.ok());
  auto file = catalog_.OpenTable("part");
  ASSERT_TRUE(file.ok());
  // UDF treated as selectivity 1.0: estimate equals the full table.
  EXPECT_DOUBLE_EQ(est->cardinality,
                   static_cast<double>((*file)->num_records()));
}

TEST_F(BaselinesTest, RelOptPlansAndExecutesQ10) {
  RelOptBaseline relopt(&engine_, &catalog_, Cost());
  auto run = relopt.PlanAndExecute(MakeTpchQ10().join_block, ExecOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run->exec_status.ok()) << run->exec_status.ToString();
  ASSERT_NE(run->output, nullptr);
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, MakeTpchQ10().join_block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(run->output->num_records(), oracle->size())
      << "RELOPT picks a different plan but must compute the same result";
}

TEST_F(BaselinesTest, JaqlPlanIsLeftDeepWithFileSizeBroadcasts) {
  BestStaticOptions options;
  options.cost = Cost();
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  JoinBlock block = MakeTpchQ10().join_block;
  auto plan = baseline.BuildJaqlPlan(block, {"c", "o", "l", "n"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Left-deep by construction.
  const PlanNode* node = plan->get();
  while (!node->IsLeaf()) {
    EXPECT_TRUE(node->right->IsLeaf());
    node = node->left.get();
  }
  EXPECT_EQ(node->relation_id, "c");
  // nation's raw file obviously fits -> its join must be broadcast.
  const PlanNode* top = plan->get();
  ASSERT_EQ(top->right->relation_id, "n");
  EXPECT_EQ(top->method, JoinMethod::kBroadcast);
}

TEST_F(BaselinesTest, JaqlPlanRejectsCartesianOrder) {
  BestStaticOptions options;
  options.cost = Cost();
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  JoinBlock block = MakeTpchQ10().join_block;
  // nation connects only through customer; starting l, n forces a
  // cartesian product at n.
  EXPECT_FALSE(baseline.BuildJaqlPlan(block, {"l", "n", "o", "c"}).ok());
}

TEST_F(BaselinesTest, BestStaticFindsCorrectAndCompetitivePlan) {
  BestStaticOptions options;
  options.cost = Cost();
  options.execute_top_k = 3;
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  JoinBlock block = MakeTpchQ10().join_block;
  auto result = baseline.Run(block);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->plans_enumerated, 1);
  EXPECT_GT(result->best_time_ms, 0);
  auto oracle = NaiveEvaluateJoinBlock(&catalog_, block);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->output->num_records(), oracle->size());
}

TEST_F(BaselinesTest, BestStaticEnumerationDedupesPlans) {
  BestStaticOptions options;
  options.cost = Cost();
  options.execute_top_k = 1;
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  // Q2: 5 relations, many orders map to the same physical plan.
  auto result = baseline.Run(MakeTpchQ2().join_block);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->plans_enumerated, 0);
  EXPECT_LT(result->plans_enumerated, 120)
      << "dedup must collapse equivalent orders";
}

// --- Statistics memoized on the catalog, once per table version. ---

/// Flips one byte of a table's first split without changing its version,
/// so any read of the table that is not served from the memo is DataLoss.
void RotFirstSplit(Catalog* catalog, const std::string& table) {
  auto file = catalog->OpenTable(table);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->CorruptByteForTesting(0, 0, 0x40).ok());
}

TEST_F(BaselinesTest, TwoRelOptBaselinesOnOneCatalogScanTheTableOnce) {
  RelOptBaseline first(&engine_, &catalog_, Cost());
  ASSERT_TRUE(first.AnalyzeTable("orders", {"o_custkey", "o_orderdate"}).ok());
  const uint64_t version = catalog_.TableVersion("orders");
  RotFirstSplit(&catalog_, "orders");
  ASSERT_EQ(catalog_.TableVersion("orders"), version);

  // The same columns, in another order: served without reading a byte.
  RelOptBaseline second(&engine_, &catalog_, Cost());
  ASSERT_TRUE(second.AnalyzeTable("orders", {"o_orderdate", "o_custkey"}).ok());
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = Ge(Col("o_orderdate"), LitInt(19950101));
  leaf.join_columns = {"o_custkey"};
  auto a = first.EstimateLeaf(leaf);
  auto b = second.EstimateLeaf(leaf);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->cardinality, b->cardinality);
  EXPECT_DOUBLE_EQ(a->ColumnNdv("o_custkey"), b->ColumnNdv("o_custkey"));

  // Another column set is another statistic: it has to scan, and the
  // rotted split says so.
  RelOptBaseline third(&engine_, &catalog_, Cost());
  Status scan = third.AnalyzeTable("orders", {"o_clerk_group"});
  EXPECT_EQ(scan.code(), StatusCode::kDataLoss) << scan.ToString();
}

TEST_F(BaselinesTest, RelOptEstimateSeesOnlyTheColumnsItAnalyzed) {
  RelOptBaseline narrow(&engine_, &catalog_, Cost());
  RelOptBaseline wide(&engine_, &catalog_, Cost());
  ASSERT_TRUE(wide.AnalyzeTable("orders", {"o_custkey", "o_orderdate"}).ok());
  ASSERT_TRUE(narrow.AnalyzeTable("orders", {"o_custkey"}).ok());
  LeafExpr leaf;
  leaf.alias = "o";
  leaf.table = "orders";
  leaf.filter = Ge(Col("o_orderdate"), LitInt(19950101));
  leaf.join_columns = {"o_custkey"};
  auto n = narrow.EstimateLeaf(leaf);
  auto w = wide.EstimateLeaf(leaf);
  ASSERT_TRUE(n.ok() && w.ok());
  EXPECT_EQ(n->columns.count("o_orderdate"), 0u);
  EXPECT_EQ(w->columns.count("o_orderdate"), 1u);
  EXPECT_EQ(n->columns.count("o_custkey"), 1u);
  // Without a histogram on the filter column, `narrow` falls back to the
  // default selectivity; `wide` uses its histogram.
  auto file = catalog_.OpenTable("orders");
  ASSERT_TRUE(file.ok());
  const double rows = static_cast<double>((*file)->num_records());
  EXPECT_NEAR(n->cardinality, rows / 3.0, 1.0);
  EXPECT_NE(n->cardinality, w->cardinality);
}

TEST_F(BaselinesTest, ReplaceTableRecomputesAndDropsStaleStatistics) {
  RelOptBaseline before(&engine_, &catalog_, Cost());
  ASSERT_TRUE(before.AnalyzeTable("region", {"r_regionkey"}).ok());
  const size_t entries = catalog_.memoized_stats_size();
  EXPECT_GE(entries, 1u);

  auto file = catalog_.OpenTable("region");
  ASSERT_TRUE(file.ok());
  auto rows = ReadAllRows(**file);
  ASSERT_TRUE(rows.ok());
  ASSERT_GT(rows->size(), 2u);
  std::vector<Value> fewer(rows->begin(), rows->begin() + 2);
  ASSERT_TRUE(WriteRows(&dfs_, "/tables/region_v2", fewer).ok());
  ASSERT_TRUE(catalog_.ReplaceTable("region", "/tables/region_v2").ok());
  EXPECT_EQ(catalog_.memoized_stats_size(), entries - 1);

  RelOptBaseline after(&engine_, &catalog_, Cost());
  ASSERT_TRUE(after.AnalyzeTable("region", {"r_regionkey"}).ok());
  LeafExpr leaf;
  leaf.alias = "r";
  leaf.table = "region";
  leaf.join_columns = {"r_regionkey"};
  auto old_est = before.EstimateLeaf(leaf);
  auto new_est = after.EstimateLeaf(leaf);
  ASSERT_TRUE(old_est.ok() && new_est.ok());
  EXPECT_DOUBLE_EQ(old_est->cardinality, static_cast<double>(rows->size()));
  EXPECT_DOUBLE_EQ(new_est->cardinality, 2.0);
  EXPECT_EQ(catalog_.memoized_stats_size(), entries);
}

TEST_F(BaselinesTest, BestStaticSelfJoinKeepsEachAliasJoinColumns) {
  // Two aliases of one table with one (empty) filter, joined on different
  // columns: k1 has 5 distinct values, k2 has 10.
  std::vector<Value> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back(MakeRow({{"id", Value::Int(i)},
                            {"k1", Value::Int(i % 5)},
                            {"k2", Value::Int(i % 10)}}));
  }
  ASSERT_TRUE(catalog_.CreateTable("pairs", rows).ok());
  JoinBlock block;
  block.tables = {{"pairs", "a"}, {"pairs", "b"}};
  block.edges = {{"a", "k1", "b", "k2"}};
  BestStaticOptions options;
  options.cost = Cost();
  BestStaticBaseline baseline(&engine_, &catalog_, options);
  auto plan = baseline.BuildJaqlPlan(block, {"a", "b"});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // 100 * 100 / max(ndv(a.k1) = 5, ndv(b.k2) = 10). With b reading a's
  // statistics, ndv(b.k2) fell back to b's cardinality: 100 * 100 / 100.
  EXPECT_DOUBLE_EQ((*plan)->est_rows, 1000.0);
}

}  // namespace
}  // namespace dyno
