#include "relational/scan_planner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/rng.h"

namespace vq {
namespace {

/// The seed implementation: one RowMatches check per row. The planner's two
/// execution paths must reproduce this bit for bit.
std::vector<uint32_t> NaiveFilterRows(const Table& table,
                                      const PredicateSet& predicates) {
  std::vector<uint32_t> out;
  for (size_t r = 0; r < table.NumRows(); ++r) {
    if (RowMatches(table, r, predicates)) out.push_back(static_cast<uint32_t>(r));
  }
  return out;
}

Table RandomTable(Rng* rng, size_t num_rows, size_t num_dims, size_t max_card) {
  Table table("random");
  std::vector<size_t> cards;
  for (size_t d = 0; d < num_dims; ++d) {
    table.AddDimColumn("d" + std::to_string(d));
    cards.push_back(2 + rng->NextBelow(max_card - 1));
  }
  table.AddTargetColumn("y");
  std::vector<std::string> dims(num_dims);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t d = 0; d < num_dims; ++d) {
      // Zipf skew plants both hot (unselective) and rare (selective) values.
      dims[d] = "v" + std::to_string(rng->NextZipf(cards[d], 1.0));
    }
    (void)table.AppendRow(dims, {static_cast<double>(rng->NextInt(0, 50))});
  }
  return table;
}

PredicateSet RandomPredicates(Rng* rng, const Table& table, size_t max_preds) {
  PredicateSet predicates;
  size_t num_preds = rng->NextBelow(max_preds + 1);
  std::vector<size_t> dims(table.NumDims());
  for (size_t d = 0; d < dims.size(); ++d) dims[d] = d;
  rng->Shuffle(&dims);
  for (size_t i = 0; i < num_preds && i < dims.size(); ++i) {
    size_t dim = dims[i];
    // Occasionally pick a value id no row carries (tests kEmptyResult).
    ValueId value = rng->NextBool(0.1)
                        ? static_cast<ValueId>(table.dict(dim).size() + 1)
                        : static_cast<ValueId>(rng->NextBelow(table.dict(dim).size()));
    predicates.push_back(EqPredicate{static_cast<int>(dim), value});
  }
  EXPECT_TRUE(NormalizePredicates(&predicates).ok());
  return predicates;
}

/// Property: for random tables and predicate sets, the posting-list path,
/// the vectorized fallback scan, the planner-routed FilterRows and the
/// naive RowMatches loop all return identical row ids.
TEST(ScanPlannerPropertyTest, AllFilterPathsAgree) {
  Rng rng(20210318);
  for (int trial = 0; trial < 60; ++trial) {
    size_t num_rows = 1 + rng.NextBelow(400);
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, num_rows, num_dims, 12);
    for (int q = 0; q < 12; ++q) {
      PredicateSet predicates = RandomPredicates(&rng, table, num_dims);
      std::vector<uint32_t> naive = NaiveFilterRows(table, predicates);
      EXPECT_EQ(FilterRowsColumnScan(table, predicates), naive);
      if (!predicates.empty()) {
        EXPECT_EQ(FilterRowsPostings(table, predicates), naive);
      }
      EXPECT_EQ(FilterRows(table, predicates), naive);
      ScanPlan plan = PlanScan(table, predicates);
      EXPECT_EQ(ExecuteScanPlan(table, predicates, plan), naive);
      EXPECT_LE(naive.size(), std::max<size_t>(plan.estimated_rows, 0));
    }
  }
}

/// Property: the multi-set partials funnel (mixed postings/scan execution),
/// merged, matches per-set naive filtering.
TEST(ScanPlannerPropertyTest, MultiFilterMatchesPerSetNaive) {
  Rng rng(987654321);
  for (int trial = 0; trial < 25; ++trial) {
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, 1 + rng.NextBelow(300), num_dims, 10);
    std::vector<PredicateSet> sets;
    for (int q = 0; q < 8; ++q) sets.push_back(RandomPredicates(&rng, table, num_dims));
    std::vector<const PredicateSet*> pointers;
    for (const auto& set : sets) pointers.push_back(&set);
    std::vector<ScanPartials> partials = FilterRowsMultiPartials(table, pointers);
    ASSERT_EQ(partials.size(), sets.size());
    for (size_t q = 0; q < sets.size(); ++q) {
      EXPECT_EQ(MergeScanPartials(std::move(partials[q])), NaiveFilterRows(table, sets[q]))
          << "set " << q;
    }
  }
}

TEST(ScanPlannerTest, PlanStrategies) {
  Rng rng(7);
  Table table = RandomTable(&rng, 200, 3, 6);

  EXPECT_EQ(PlanScan(table, {}).strategy, ScanStrategy::kAllRows);

  PredicateSet missing{EqPredicate{0, static_cast<ValueId>(table.dict(0).size())}};
  EXPECT_EQ(PlanScan(table, missing).strategy, ScanStrategy::kEmptyResult);

  // A single predicate always answers from its posting list.
  PredicateSet single{EqPredicate{0, 0}};
  ScanPlan plan = PlanScan(table, single);
  EXPECT_EQ(plan.strategy, ScanStrategy::kPostings);
  EXPECT_EQ(plan.estimated_rows, table.index().Count(0, 0));

  // force_scan pins the fallback path.
  ScanPlannerOptions options;
  options.force_scan = true;
  EXPECT_EQ(PlanScan(table, single, options).strategy, ScanStrategy::kColumnScan);

  // An unselective conjunction (hot Zipf head values on every dimension)
  // with a tiny cost factor falls back to the scan.
  PredicateSet hot{EqPredicate{0, 0}, EqPredicate{1, 0}};
  ScanPlannerOptions strict;
  strict.cost_factor = 1e9;
  EXPECT_EQ(PlanScan(table, hot, strict).strategy, ScanStrategy::kColumnScan);
}

TEST(ScanStatsTest, LearnsCostFactorFromObservedCosts) {
  ScanStats stats;
  // Cold: no samples on either path -> the caller's fallback rules.
  EXPECT_DOUBLE_EQ(stats.CostFactor(4.0), 4.0);
  stats.RecordPostings(100, 100 * 20e-9);  // 20 ns per driver row
  // Still one-sided: a lone EWMA says nothing about the ratio.
  EXPECT_DOUBLE_EQ(stats.CostFactor(4.0), 4.0);
  stats.RecordScan(1000, 1000 * 2e-9);  // 2 ns per scanned row
  // Both paths observed: factor = 20ns / 2ns = 10.
  EXPECT_NEAR(stats.CostFactor(4.0), 10.0, 1e-9);
  EXPECT_EQ(stats.postings_samples(), 1u);
  EXPECT_EQ(stats.scan_samples(), 1u);
  EXPECT_NEAR(stats.postings_ns_per_row(), 20.0, 1e-6);
  EXPECT_NEAR(stats.scan_ns_per_row(), 2.0, 1e-6);

  // The EWMA moves toward new observations but one outlier cannot flip it.
  stats.RecordPostings(100, 100 * 2000e-9);  // descheduled outlier
  double factor = stats.CostFactor(4.0);
  EXPECT_GT(factor, 10.0);
  EXPECT_LT(factor, ScanStats::kMaxFactor + 1e-9);

  // Degenerate observations are ignored, not divided by.
  stats.RecordPostings(0, 1.0);
  stats.RecordScan(100, 0.0);
  EXPECT_EQ(stats.postings_samples(), 2u);
  EXPECT_EQ(stats.scan_samples(), 1u);
}

TEST(ScanStatsTest, LearnedFactorDrivesThePlanner) {
  Rng rng(7);
  Table table = RandomTable(&rng, 200, 3, 6);
  // Zipf head values on both dimensions: barely selective conjunction.
  PredicateSet hot{EqPredicate{0, 0}, EqPredicate{1, 0}};
  size_t driver = std::min(table.index().Count(0, 0), table.index().Count(1, 0));
  ASSERT_GT(driver, 0u);

  ScanStats stats;
  ScanPlannerOptions options;
  options.stats = &stats;
  options.cost_factor = 4.0;  // seeds the decision until both paths sampled

  // Teach the stats that intersections are effectively free: the planner
  // must now prefer postings even when the fixed factor would not.
  stats.RecordPostings(1000, 1000 * 1e-9);
  stats.RecordScan(1000, 1000 * 1e-9);  // factor -> clamp at kMinFactor = 1
  bool cheap_selective = static_cast<double>(driver) * ScanStats::kMinFactor <=
                         static_cast<double>(table.NumRows());
  ScanPlan cheap_plan = PlanScan(table, hot, options);
  EXPECT_EQ(cheap_plan.strategy, cheap_selective ? ScanStrategy::kPostings
                                                 : ScanStrategy::kColumnScan);

  // Teach the opposite: probes vastly more expensive than scan rows.
  ScanStats slow;
  for (int i = 0; i < 200; ++i) {
    slow.RecordPostings(10, 10 * 10000e-9);
    slow.RecordScan(1000, 1000 * 1e-9);
  }
  options.stats = &slow;
  EXPECT_EQ(PlanScan(table, hot, options).strategy, ScanStrategy::kColumnScan);

  // Executions through the stats-carrying entry point keep training it, and
  // results stay identical to the naive filter either way.
  std::vector<uint32_t> filtered = PlannedFilterRows(table, hot, options);
  EXPECT_EQ(filtered, NaiveFilterRows(table, hot));
  // The single-predicate copy path must NOT train the intersection EWMA.
  PredicateSet single{EqPredicate{0, 0}};
  uint64_t before = slow.postings_samples();
  (void)PlannedFilterRows(table, single, options);
  EXPECT_EQ(slow.postings_samples(), before);
}

TEST(ScanStatsTest, ForcedProbeRecoversAPoisonedEwma) {
  Rng rng(7);
  Table table = RandomTable(&rng, 200, 3, 6);
  // Hot head values: an eligible conjunction where both paths can run.
  PredicateSet hot{EqPredicate{0, 0}, EqPredicate{1, 0}};

  // Poison the postings EWMA with an outlier streak: the learned factor
  // clamps at kMaxFactor, so the planner chooses the scan for every
  // eligible conjunction -- and before the probe fix, the postings path
  // would never be timed again, freezing the EWMA at the poison forever.
  const double kPoisonNsPerRow = 100000.0;  // 100 us per driver row
  ScanStats stats;
  for (int i = 0; i < 200; ++i) {
    stats.RecordPostings(10, 10 * kPoisonNsPerRow * 1e-9);
    stats.RecordScan(1000, 1000 * 20e-9);
  }
  ASSERT_DOUBLE_EQ(stats.CostFactor(4.0), ScanStats::kMaxFactor);
  ASSERT_DOUBLE_EQ(stats.postings_ns_per_row(), kPoisonNsPerRow);
  uint64_t poisoned_samples = stats.postings_samples();

  ScanPlannerOptions options;
  options.stats = &stats;
  std::vector<uint32_t> expected = NaiveFilterRows(table, hot);
  // Run well past several probe periods. Every kProbePeriod-th eligible
  // filter executes (and times) the disfavored postings path; real probes
  // on a 200-row table are orders of magnitude cheaper than the poison, so
  // the EWMA ratio must come down off the clamp.
  const int kFilters = 32 * static_cast<int>(ScanStats::kProbePeriod);
  for (int i = 0; i < kFilters; ++i) {
    EXPECT_EQ(PlannedFilterRows(table, hot, options), expected);
  }
  EXPECT_GE(stats.probes(), static_cast<uint64_t>(kFilters) /
                                ScanStats::kProbePeriod);
  // The disfavored path kept collecting samples...
  EXPECT_GT(stats.postings_samples(), poisoned_samples);
  // ...and its EWMA -- the unclamped quantity the poison froze -- came
  // well down toward real probe timings. (The clamped RATIO is not
  // asserted: on a loaded machine the true postings/scan ratio can
  // legitimately sit at the clamp, because real scans cost only a few
  // nanoseconds per row.)
  EXPECT_LT(stats.postings_ns_per_row(), kPoisonNsPerRow / 2);
}

TEST(ScanStatsTest, PerTableStatsStopCrossTableSkew) {
  Rng rng(11);
  Table big = RandomTable(&rng, 300, 3, 6);
  Table fresh = RandomTable(&rng, 300, 3, 6);
  PredicateSet hot{EqPredicate{0, 0}, EqPredicate{1, 0}};
  size_t driver = std::min(big.index().Count(0, 0), big.index().Count(1, 0));
  ASSERT_GT(driver, 0u);

  // The process-wide model was skewed by some other (tiny) table: its cheap
  // scans make intersections look prohibitively expensive.
  ScanStats shared;
  for (int i = 0; i < 50; ++i) {
    shared.RecordPostings(10, 10 * 100000e-9);
    shared.RecordScan(1000, 1000 * 1e-9);
  }
  ASSERT_DOUBLE_EQ(shared.CostFactor(4.0), ScanStats::kMaxFactor);

  // The big table's OWN statistics say intersections are effectively free.
  ScanPlannerOptions options;
  options.stats = &shared;
  options.per_table_stats = true;
  for (uint64_t i = 0; i < options.table_stats_min_samples; ++i) {
    big.index().scan_stats().RecordPostings(1000, 1000 * 1e-9);
    big.index().scan_stats().RecordScan(1000, 1000 * 1e-9);
  }
  // Once warm, the per-table model overrides the skewed shared one.
  bool cheap_selective = static_cast<double>(driver) * ScanStats::kMinFactor <=
                         static_cast<double>(big.NumRows());
  EXPECT_EQ(PlanScan(big, hot, options).strategy,
            cheap_selective ? ScanStrategy::kPostings
                            : ScanStrategy::kColumnScan);

  // A table with no warm statistics of its own still falls back to the
  // shared model (kMaxFactor -> scan for any eligible conjunction).
  ASSERT_EQ(fresh.index().scan_stats().postings_samples(), 0u);
  EXPECT_EQ(PlanScan(fresh, hot, options).strategy, ScanStrategy::kColumnScan);

  // Executions through the funnel-style options train BOTH models.
  uint64_t shared_before = shared.scan_samples();
  uint64_t local_before = fresh.index().scan_stats().scan_samples();
  EXPECT_EQ(PlannedFilterRows(fresh, hot, options), NaiveFilterRows(fresh, hot));
  EXPECT_EQ(shared.scan_samples(), shared_before + 1);
  EXPECT_EQ(fresh.index().scan_stats().scan_samples(), local_before + 1);
}

}  // namespace
}  // namespace vq
