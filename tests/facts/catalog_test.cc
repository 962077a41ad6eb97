#include "facts/catalog.h"

#include <gtest/gtest.h>

#include <cmath>

#include "relational/group_by.h"
#include "storage/datasets.h"

namespace vq {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    InstanceOptions options;
    options.prior_kind = PriorKind::kZero;
    instance_ = BuildInstance(table_, {}, 0, options).value();
  }

  Table table_ = MakeRunningExampleTable();
  SummaryInstance instance_;
};

TEST_F(CatalogTest, GroupAndFactCounts) {
  auto catalog = FactCatalog::Build(instance_, 2);
  ASSERT_TRUE(catalog.ok());
  // Groups: {}, {region}, {season}, {region, season}.
  EXPECT_EQ(catalog.value().NumGroups(), 4u);
  // Facts: 1 overall + 4 regions + 4 seasons + 16 combos = 25 (Theorem 9's
  // bound with d=2, l=2 and 4 values each).
  EXPECT_EQ(catalog.value().NumFacts(), 25u);
}

TEST_F(CatalogTest, MaxFactDimsOneDropsPairGroup) {
  auto catalog = FactCatalog::Build(instance_, 1);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog.value().NumGroups(), 3u);
  EXPECT_EQ(catalog.value().NumFacts(), 9u);
  EXPECT_EQ(catalog.value().GroupIndexForMask(0b11), -1);
  EXPECT_GE(catalog.value().GroupIndexForMask(0b01), 0);
}

TEST_F(CatalogTest, TypicalValuesAreScopeAverages) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  // Find the Winter fact: the season dim is position 1 in the instance.
  int season_group = catalog.GroupIndexForMask(1u << 1);
  ASSERT_GE(season_group, 0);
  bool found_winter = false;
  const FactGroup& group = catalog.group(static_cast<uint32_t>(season_group));
  for (uint32_t i = 0; i < group.num_facts; ++i) {
    FactId id = group.first_fact + i;
    auto scope = catalog.DescribeScope(table_, instance_, id);
    ASSERT_EQ(scope.size(), 1u);
    if (scope[0].second == "Winter") {
      found_winter = true;
      EXPECT_DOUBLE_EQ(catalog.fact(id).value, 15.0);  // Example 2
      EXPECT_DOUBLE_EQ(catalog.fact(id).scope_weight, 4.0);
    }
  }
  EXPECT_TRUE(found_winter);
}

TEST_F(CatalogTest, OverallFactIsGlobalAverage) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  int overall_group = catalog.GroupIndexForMask(0);
  ASSERT_GE(overall_group, 0);
  const FactGroup& group = catalog.group(static_cast<uint32_t>(overall_group));
  ASSERT_EQ(group.num_facts, 1u);
  EXPECT_DOUBLE_EQ(catalog.fact(group.first_fact).value, 7.5);
  EXPECT_TRUE(catalog.DescribeScope(table_, instance_, group.first_fact).empty());
}

TEST_F(CatalogTest, RowFactPartitionsRows) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  for (const auto& group : catalog.groups()) {
    ASSERT_EQ(group.row_fact.size(), instance_.num_rows);
    double weight = 0.0;
    for (size_t r = 0; r < instance_.num_rows; ++r) {
      FactId id = group.row_fact[r];
      ASSERT_GE(id, group.first_fact);
      ASSERT_LT(id, group.first_fact + group.num_facts);
      EXPECT_TRUE(catalog.RowInScope(r, id));
      weight += instance_.weight[r];
    }
    EXPECT_DOUBLE_EQ(weight, instance_.total_weight);
  }
}

TEST_F(CatalogTest, RowInScopeConsistentWithCodes) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  // For every fact and row: in scope iff the row's codes match the scope.
  for (FactId id = 0; id < catalog.NumFacts(); ++id) {
    auto scope = catalog.DescribeScope(table_, instance_, id);
    for (size_t r = 0; r < instance_.num_rows; ++r) {
      bool expect_in_scope = true;
      for (const auto& [dim_name, value] : scope) {
        // Map back to instance dim position.
        for (size_t pos = 0; pos < instance_.dim_names.size(); ++pos) {
          if (instance_.dim_names[pos] != dim_name) continue;
          int table_dim = instance_.dims[pos];
          ValueId code = *table_.dict(static_cast<size_t>(table_dim)).Find(value);
          if (instance_.CodeAt(r, pos) != code) expect_in_scope = false;
        }
      }
      EXPECT_EQ(catalog.RowInScope(r, id), expect_in_scope) << "fact " << id;
    }
  }
}

TEST_F(CatalogTest, WeightedAverageOfFactValuesIsGlobalAverage) {
  auto catalog = FactCatalog::Build(instance_, 2).value();
  // Within each group, scope_weight-weighted mean of fact values must equal
  // the overall average (facts partition the rows).
  for (const auto& group : catalog.groups()) {
    double sum = 0.0;
    double weight = 0.0;
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      const Fact& fact = catalog.fact(group.first_fact + i);
      sum += fact.value * fact.scope_weight;
      weight += fact.scope_weight;
    }
    EXPECT_NEAR(sum / weight, 7.5, 1e-9);
  }
}

TEST_F(CatalogTest, RejectsTooManyFactDims) {
  EXPECT_FALSE(FactCatalog::Build(instance_, 5).ok());
  EXPECT_FALSE(FactCatalog::Build(instance_, -1).ok());
}

TEST(CatalogLimitTest, DimensionBeyondPackableLimitIsRejected) {
  // Fact keys pack 16-bit codes; a larger fact-eligible dictionary builds an
  // instance but no catalog.
  Table table("wide");
  table.AddDimColumn("id");
  table.AddTargetColumn("t");
  for (ValueId v = 0; v <= kMaxPackableCode; ++v) {
    table.mutable_dict(0).Intern("v" + std::to_string(v));
  }
  table.AppendEncodedRow({kMaxPackableCode}, {1.0});
  auto instance = BuildInstance(table, {}, 0);
  ASSERT_TRUE(instance.ok());
  auto catalog = FactCatalog::Build(instance.value(), 1);
  EXPECT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace vq
