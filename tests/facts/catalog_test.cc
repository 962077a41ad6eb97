#include "facts/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>

#include "relational/group_by.h"
#include "storage/datasets.h"
#include "util/rng.h"

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

TEST(CatalogLimitTest, GroupsTimesRowsBeyondUint32IsRejected) {
  // CSR offsets and FactIds are uint32_t. The guard must fire before Build
  // touches the (unallocated) codes.
  SummaryInstance instance;
  instance.num_rows = size_t{UINT32_MAX} + 1;
  auto catalog = FactCatalog::Build(instance, 0);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kUnsupported);

  // Two groups ({} and {d0}) of 2^31 rows each also reach 2^32 entries.
  instance.dims = {0};
  instance.dim_names = {"d0"};
  instance.dim_cardinalities = {2};
  instance.num_rows = size_t{1} << 31;
  catalog = FactCatalog::Build(instance, 1);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kUnsupported);
}

TEST(CatalogLimitTest, CodeBeyondCardinalityIsRejected) {
  // Codes index each group's dense id array, so they must stay below their
  // dimension's cardinality.
  SummaryInstance instance;
  instance.dims = {0};
  instance.dim_names = {"d0"};
  instance.dim_cardinalities = {2};
  instance.num_rows = 1;
  instance.codes = {2};
  instance.target = {1.0};
  instance.weight = {1.0};
  auto catalog = FactCatalog::Build(instance, 1);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kInvalidArgument);
}

// Reference catalog: facts numbered in first-seen row order per group
// through an ordered map of packed keys, row lists in ascending row order.
struct ReferenceCatalog {
  std::vector<Fact> facts;
  std::vector<FactGroup> groups;
  std::vector<std::vector<uint32_t>> scope_rows;  // per fact
};

ReferenceCatalog BuildReference(const SummaryInstance& instance, int max_fact_dims,
                                int min_fact_dims) {
  ReferenceCatalog ref;
  size_t num_dims = instance.dims.size();
  for (uint32_t mask = 0; mask < (1u << num_dims); ++mask) {
    int mask_dims = std::popcount(mask);
    if (mask_dims < min_fact_dims || mask_dims > max_fact_dims) continue;
    FactGroup group;
    group.mask = mask;
    for (size_t d = 0; d < num_dims; ++d) {
      if (mask & (1u << d)) group.dim_positions.push_back(static_cast<int>(d));
    }
    group.first_fact = static_cast<FactId>(ref.facts.size());
    std::map<uint64_t, FactId> fact_of_key;
    std::vector<double> sums;
    for (size_t r = 0; r < instance.num_rows; ++r) {
      std::vector<ValueId> codes;
      for (int pos : group.dim_positions) {
        codes.push_back(instance.CodeAt(r, static_cast<size_t>(pos)));
      }
      uint64_t key = PackGroupKey(codes);
      auto [it, inserted] = fact_of_key.emplace(key, static_cast<FactId>(ref.facts.size()));
      if (inserted) {
        ref.facts.push_back(Fact{static_cast<uint32_t>(ref.groups.size()), key, 0.0, 0.0});
        ref.scope_rows.emplace_back();
        sums.push_back(0.0);
      }
      group.row_fact.push_back(it->second);
      ref.facts[it->second].scope_weight += instance.weight[r];
      sums[it->second - group.first_fact] += instance.target[r] * instance.weight[r];
      ref.scope_rows[it->second].push_back(static_cast<uint32_t>(r));
    }
    group.num_facts = static_cast<uint32_t>(ref.facts.size()) - group.first_fact;
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      Fact& fact = ref.facts[group.first_fact + i];
      fact.value = fact.scope_weight > 0.0 ? sums[i] / fact.scope_weight : 0.0;
    }
    ref.groups.push_back(std::move(group));
  }
  return ref;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(CatalogIdentityTest, MatchesOrderedMapReferenceOnRandomInstances) {
  // Cardinality kMaxPackableCode puts codes at kMaxPackableCode - 1 and
  // makes every pair group containing it exceed the dense cap (2^16 cells
  // at these row counts), so both id paths run.
  const size_t kCards[] = {1, 2, 3, 7, 50, 300, kMaxPackableCode};
  Rng rng(0xCA7A106);
  size_t dense_groups = 0;
  size_t hashed_groups = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SummaryInstance instance;
    size_t num_dims = rng.NextBelow(6);
    for (size_t d = 0; d < num_dims; ++d) {
      instance.dims.push_back(static_cast<int>(d));
      instance.dim_names.push_back(std::to_string(d));
      instance.dim_cardinalities.push_back(kCards[rng.NextBelow(std::size(kCards))]);
    }
    instance.num_rows = 1 + rng.NextBelow(300);
    for (size_t r = 0; r < instance.num_rows; ++r) {
      for (size_t card : instance.dim_cardinalities) {
        // Half the codes of the largest cardinality sit at its top code.
        bool top = card == kMaxPackableCode && rng.NextBelow(2) == 0;
        instance.codes.push_back(static_cast<ValueId>(top ? card - 1 : rng.NextBelow(card)));
      }
      instance.target.push_back(rng.NextBelow(4) == 0 ? rng.NextDouble() * 100.0
                                                      : static_cast<double>(rng.NextInt(-5, 40)));
      instance.weight.push_back(static_cast<double>(rng.NextInt(1, 6)));
      instance.total_weight += instance.weight.back();
    }
    instance.prior = rng.NextDouble() * 20.0;
    int max_fact_dims = static_cast<int>(rng.NextBelow(std::min<size_t>(num_dims, 4) + 1));
    int min_fact_dims = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(max_fact_dims) + 1));
    if (trial % 3 == 0) min_fact_dims = 0;  // keep the 0-dimension group often
    SCOPED_TRACE(::testing::Message() << "trial " << trial);

    auto built = FactCatalog::Build(instance, max_fact_dims, min_fact_dims);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const FactCatalog& catalog = built.value();
    ReferenceCatalog ref = BuildReference(instance, max_fact_dims, min_fact_dims);

    ASSERT_EQ(catalog.NumGroups(), ref.groups.size());
    for (size_t g = 0; g < ref.groups.size(); ++g) {
      const FactGroup& got = catalog.group(static_cast<uint32_t>(g));
      const FactGroup& want = ref.groups[g];
      EXPECT_EQ(got.mask, want.mask);
      EXPECT_EQ(got.dim_positions, want.dim_positions);
      EXPECT_EQ(got.first_fact, want.first_fact);
      EXPECT_EQ(got.num_facts, want.num_facts);
      EXPECT_EQ(got.row_fact, want.row_fact);
      EXPECT_EQ(catalog.GroupIndexForMask(want.mask), static_cast<int>(g));
      size_t cells = 1;
      for (int pos : want.dim_positions) {
        cells *= instance.dim_cardinalities[static_cast<size_t>(pos)];
      }
      ++(cells > std::max<size_t>(size_t{1} << 16, 4 * instance.num_rows) ? hashed_groups
                                                                          : dense_groups);
    }
    ASSERT_EQ(catalog.NumFacts(), ref.facts.size());
    ASSERT_TRUE(catalog.HasScopeBits());
    for (FactId id = 0; id < ref.facts.size(); ++id) {
      const Fact& got = catalog.fact(id);
      const Fact& want = ref.facts[id];
      EXPECT_EQ(got.group, want.group);
      EXPECT_EQ(got.packed, want.packed);
      EXPECT_TRUE(SameBits(got.value, want.value)) << "fact " << id;
      EXPECT_TRUE(SameBits(got.scope_weight, want.scope_weight)) << "fact " << id;

      const std::vector<uint32_t>& rows = ref.scope_rows[id];
      auto scope_rows = catalog.ScopeRows(id);
      ASSERT_EQ(std::vector<uint32_t>(scope_rows.begin(), scope_rows.end()), rows);
      auto devs = catalog.ScopeDevs(id);
      auto weights = catalog.ScopeWeights(id);
      auto prior_devs = catalog.ScopePriorDevs(id);
      std::vector<uint64_t> bits(catalog.ScopeWords(), 0);
      for (size_t i = 0; i < rows.size(); ++i) {
        uint32_t r = rows[i];
        EXPECT_TRUE(SameBits(devs[i], std::fabs(want.value - instance.target[r])));
        EXPECT_TRUE(SameBits(weights[i], instance.weight[r]));
        EXPECT_TRUE(SameBits(prior_devs[i], std::fabs(instance.prior - instance.target[r])));
        bits[r >> 6] |= uint64_t{1} << (r & 63);
      }
      auto scope_bits = catalog.ScopeBits(id);
      EXPECT_EQ(std::vector<uint64_t>(scope_bits.begin(), scope_bits.end()), bits);
    }
  }
  EXPECT_GT(dense_groups, 0u);
  EXPECT_GT(hashed_groups, 0u);
}

}  // namespace
}  // namespace vq
