// Property tests for the sharded scan path: filters over a table split into
// {1, 3, 8, ragged} shards must return bit-identical results to the naive
// row-at-a-time loop -- sequentially AND through the parallel fan-out with an
// injected pool -- and the per-shard partials must obey the ScanPartial
// contract (ascending shard order, shard-local ascending ids, exact
// base/shard metadata).
#include "relational/scan_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "relational/predicate.h"
#include "relational/scan_partial.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vq {
namespace {

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
    ValueId value = rng->NextBool(0.1)
                        ? static_cast<ValueId>(table.dict(dim).size() + 1)
                        : static_cast<ValueId>(rng->NextBelow(table.dict(dim).size()));
    predicates.push_back(EqPredicate{static_cast<int>(dim), value});
  }
  EXPECT_TRUE(NormalizePredicates(&predicates).ok());
  return predicates;
}

/// Shard-size configurations applied to each table: whole-table (1 shard),
/// an even-ish 3-way split, a small 8-way split, and a size that leaves a
/// ragged (shorter) last shard.
std::vector<size_t> ShardSizeConfigs(size_t num_rows) {
  std::vector<size_t> configs = {num_rows,                 // 1 shard
                                 (num_rows + 2) / 3,       // ~3 shards
                                 (num_rows + 7) / 8};      // ~8 shards
  // A divisor-unfriendly size: last shard holds num_rows % size rows.
  size_t ragged = num_rows / 5 + 1;
  if (num_rows % ragged == 0) ++ragged;
  configs.push_back(ragged);
  for (size_t& c : configs) c = std::max<size_t>(c, 1);
  return configs;
}

/// Shard tasks dispatched to a pool so far, across every parallel fan-out.
uint64_t ShardFanouts() {
  return obs::MetricsRegistry::Global()
      .GetCounter("vq_scan_shard_fanout_total")
      ->Value();
}

/// Validates the ScanPartial contract against the table's shard layout and
/// returns the merged global ids.
std::vector<uint32_t> CheckedMerge(const Table& table, const ScanPartials& partials) {
  const TableIndex& index = table.index();
  EXPECT_EQ(partials.size(), index.num_shards());
  for (size_t s = 0; s < partials.size(); ++s) {
    const ScanPartial& partial = partials[s];
    EXPECT_EQ(partial.shard, s);
    EXPECT_EQ(partial.base, index.shard(s).base());
    EXPECT_TRUE(std::is_sorted(partial.rows.begin(), partial.rows.end()));
    if (!partial.rows.empty()) {
      EXPECT_LT(partial.rows.back(), index.shard(s).num_rows());
    }
  }
  return MergeScanPartials(partials);
}

/// Property: every filter path agrees with the naive loop for every shard
/// count, and the partials respect the shard layout.
TEST(ShardedScanPropertyTest, FilterPathsBitIdenticalAcrossShardCounts) {
  Rng rng(20210318);
  for (int trial = 0; trial < 12; ++trial) {
    size_t num_rows = 64 + rng.NextBelow(500);
    size_t num_dims = 1 + rng.NextBelow(4);
    Table table = RandomTable(&rng, num_rows, num_dims, 12);
    // Queries are generated once per trial so every shard configuration
    // answers the exact same filters.
    std::vector<PredicateSet> queries;
    for (int q = 0; q < 8; ++q) queries.push_back(RandomPredicates(&rng, table, num_dims));

    std::vector<std::vector<uint32_t>> expected;
    for (const PredicateSet& predicates : queries) {
      expected.push_back(NaiveFilterRows(table, predicates));
    }

    for (size_t shard_rows : ShardSizeConfigs(num_rows)) {
      table.SetTargetShardRows(shard_rows);
      size_t want_shards = (num_rows + shard_rows - 1) / shard_rows;
      ASSERT_EQ(table.index().num_shards(), want_shards)
          << num_rows << " rows @ " << shard_rows;
      for (size_t q = 0; q < queries.size(); ++q) {
        const PredicateSet& predicates = queries[q];
        EXPECT_EQ(FilterRows(table, predicates), expected[q]);
        EXPECT_EQ(FilterRowsColumnScan(table, predicates), expected[q]);
        if (!predicates.empty()) {
          EXPECT_EQ(FilterRowsPostings(table, predicates), expected[q]);
        }
        ScanPartials partials = PlannedFilterRowsPartials(table, predicates);
        EXPECT_EQ(CheckedMerge(table, partials), expected[q]);
      }
    }
  }
}

/// Property: the parallel fan-out (multi-shard table + injected pool, caller
/// not a pool worker) merges to the same bits as the sequential path.
TEST(ShardedScanPropertyTest, ParallelFanoutBitIdentical) {
  Rng rng(424242);
  ThreadPool pool(3);
  for (int trial = 0; trial < 8; ++trial) {
    size_t num_rows = 128 + rng.NextBelow(600);
    Table table = RandomTable(&rng, num_rows, 3, 10);
    for (size_t shard_rows : ShardSizeConfigs(num_rows)) {
      table.SetTargetShardRows(shard_rows);
      size_t num_shards = table.index().num_shards();
      uint64_t fanouts_before = ShardFanouts();
      uint64_t expected_fanouts = 0;
      for (int q = 0; q < 6; ++q) {
        PredicateSet predicates = RandomPredicates(&rng, table, 3);
        std::vector<uint32_t> expected = NaiveFilterRows(table, predicates);
        ScanPlannerOptions options;
        options.pool = &pool;
        EXPECT_EQ(PlannedFilterRows(table, predicates, options), expected);
        EXPECT_EQ(CheckedMerge(table, PlannedFilterRowsPartials(table, predicates,
                                                                options)),
                  expected);
        // Both calls fan out every shard unless the plan needs none.
        if (num_shards > 1 &&
            PlanScan(table, predicates).strategy != ScanStrategy::kEmptyResult) {
          expected_fanouts += 2 * num_shards;
        }
      }
      // Multi-shard filters ran every shard as a task on the injected pool;
      // a single-shard table never touches it.
      EXPECT_EQ(ShardFanouts() - fanouts_before, expected_fanouts)
          << num_shards << " shards";
    }
  }
}

/// Property: the multi-set partials funnel matches per-set naive filtering at
/// every shard count, and so do per-set partials through an injected pool;
/// every partials result obeys the per-shard contract.
TEST(ShardedScanPropertyTest, MultiFilterBitIdenticalAcrossShardCounts) {
  Rng rng(987654321);
  ThreadPool pool(3);
  for (int trial = 0; trial < 8; ++trial) {
    size_t num_rows = 64 + rng.NextBelow(400);
    Table table = RandomTable(&rng, num_rows, 3, 10);
    std::vector<PredicateSet> sets;
    for (int q = 0; q < 8; ++q) sets.push_back(RandomPredicates(&rng, table, 3));
    std::vector<const PredicateSet*> pointers;
    for (const auto& set : sets) pointers.push_back(&set);
    std::vector<std::vector<uint32_t>> expected;
    for (const auto& set : sets) expected.push_back(NaiveFilterRows(table, set));

    for (size_t shard_rows : ShardSizeConfigs(num_rows)) {
      table.SetTargetShardRows(shard_rows);
      std::vector<ScanPartials> partials = FilterRowsMultiPartials(table, pointers);
      ASSERT_EQ(partials.size(), sets.size());
      ScanPlannerOptions options;
      options.pool = &pool;
      for (size_t q = 0; q < sets.size(); ++q) {
        EXPECT_EQ(CheckedMerge(table, partials[q]), expected[q]) << "set " << q;
        EXPECT_EQ(CheckedMerge(table, PlannedFilterRowsPartials(table, sets[q], options)),
                  expected[q])
            << "pooled set " << q;
      }
    }
  }
}

/// The nested fan-out guard: a filter that runs ON a worker of the pool it
/// would fan out to runs its shards inline. With every worker of a 2-thread
/// pool inside such a filter, fanned-out shard tasks would queue behind the
/// callers with no free worker to start them, and no call would return.
TEST(ShardedScanTest, FiltersOnEverySaturatedPoolWorkerFinish) {
  Rng rng(5150);
  Table table = RandomTable(&rng, 600, 3, 6);
  table.SetTargetShardRows(64);  // 10 shards, ragged last
  ASSERT_GT(table.index().num_shards(), 1u);
  std::vector<PredicateSet> queries = {{EqPredicate{0, 0}},
                                       {EqPredicate{0, 0}, EqPredicate{1, 0}}};
  for (auto& predicates : queries) ASSERT_TRUE(NormalizePredicates(&predicates).ok());
  for (int q = 0; q < 4; ++q) queries.push_back(RandomPredicates(&rng, table, 3));
  std::vector<std::vector<uint32_t>> expected;
  for (const PredicateSet& predicates : queries) {
    expected.push_back(NaiveFilterRows(table, predicates));
  }

  // Leaked if a call hangs: a pool whose workers never return cannot join.
  auto* pool = new ThreadPool(2);
  std::atomic<size_t> started{0};
  std::vector<std::future<bool>> callers;
  for (size_t w = 0; w < pool->NumThreads(); ++w) {
    callers.push_back(pool->SubmitTask([&] {
      // Wait until every worker is inside a task: the pool is saturated.
      started.fetch_add(1);
      while (started.load() < pool->NumThreads()) std::this_thread::yield();
      bool equal = true;
      for (bool force_scan : {false, true}) {  // postings plans, then scans
        ScanPlannerOptions options;
        options.pool = pool;
        options.force_scan = force_scan;
        for (size_t q = 0; q < queries.size(); ++q) {
          equal = equal && PlannedFilterRows(table, queries[q], options) == expected[q];
        }
      }
      return equal;
    }));
  }
  bool finished = true;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (auto& caller : callers) {
    if (caller.wait_until(deadline) != std::future_status::ready) {
      finished = false;
      continue;
    }
    EXPECT_TRUE(caller.get());
  }
  ASSERT_TRUE(finished) << "a filter on a saturated pool worker never returned";
  delete pool;
}

/// The partials funnel (FilterRowsMultiPartials, which trains the global
/// planner statistics like FilterRows) agrees with the merged funnel.
TEST(ShardedScanTest, PartialsFunnelMatchesMergedFunnel) {
  Rng rng(5);
  Table table = RandomTable(&rng, 300, 3, 8);
  table.SetTargetShardRows(64);  // 5 shards, ragged last (300 = 4*64 + 44)
  std::vector<PredicateSet> sets;
  for (int q = 0; q < 6; ++q) sets.push_back(RandomPredicates(&rng, table, 3));
  std::vector<const PredicateSet*> pointers;
  for (const auto& set : sets) pointers.push_back(&set);
  std::vector<ScanPartials> partials = FilterRowsMultiPartials(table, pointers);
  ASSERT_EQ(partials.size(), sets.size());
  for (size_t q = 0; q < sets.size(); ++q) {
    EXPECT_EQ(MergeScanPartials(std::move(partials[q])), FilterRows(table, sets[q]))
        << "set " << q;
  }
}

}  // namespace
}  // namespace vq
