// Concurrency coverage for the sharded scan path, run under ThreadSanitizer
// by the serve-tsan preset (the binary name matches its ^(serve_|engine_|obs_)
// filter). The racy surfaces under test: many caller threads fanning shard
// tasks into ONE shared pool at once, the lazily built table index's
// double-checked publish, and the process-wide metrics the fan-out records
// into.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "relational/predicate.h"
#include "relational/scan_planner.h"
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

Table MultiShardTable(size_t num_rows, size_t shard_rows) {
  Rng rng(20210318);
  Table table("concurrent");
  table.AddDimColumn("a");
  table.AddDimColumn("b");
  table.AddTargetColumn("y");
  for (size_t r = 0; r < num_rows; ++r) {
    (void)table.AppendRow({"v" + std::to_string(rng.NextZipf(8, 1.0)),
                           "v" + std::to_string(rng.NextZipf(6, 1.0))},
                          {static_cast<double>(rng.NextInt(0, 50))});
  }
  table.SetTargetShardRows(shard_rows);
  return table;
}

/// Many caller threads run parallel sharded filters through ONE shared scan
/// pool; every result must stay bit-identical to the naive loop.
TEST(ConcurrentScanTest, ParallelFiltersShareOnePool) {
  Table table = MultiShardTable(4000, 512);  // 8 shards
  ASSERT_GT(table.index().num_shards(), 1u);
  std::vector<PredicateSet> queries = {
      {EqPredicate{0, 0}},
      {EqPredicate{0, 1}, EqPredicate{1, 0}},
      {EqPredicate{1, 2}},
      {EqPredicate{0, 2}, EqPredicate{1, 1}},
  };
  for (auto& predicates : queries) ASSERT_TRUE(NormalizePredicates(&predicates).ok());
  std::vector<std::vector<uint32_t>> expected;
  for (const auto& predicates : queries) {
    expected.push_back(NaiveFilterRows(table, predicates));
  }

  ThreadPool shard_pool(4);  // the shared fan-out target
  obs::Counter* fanouts =
      obs::MetricsRegistry::Global().GetCounter("vq_scan_shard_fanout_total");
  uint64_t fanouts_before = fanouts->Value();
  std::atomic<int> mismatches{0};
  const int kCallers = 6;
  const int kItersPerCaller = 40;
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      ScanPlannerOptions options;
      options.pool = &shard_pool;
      for (int i = 0; i < kItersPerCaller; ++i) {
        size_t q = static_cast<size_t>(c + i) % queries.size();
        if (PlannedFilterRows(table, queries[q], options) != expected[q]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every call fanned all of its shards out through the shared pool, and the
  // concurrent counter updates lost none of them.
  EXPECT_EQ(fanouts->Value() - fanouts_before,
            uint64_t{kCallers} * kItersPerCaller * table.index().num_shards());
}

/// Concurrent first use of a multi-shard table: threads race the lazy index
/// build (itself parallelized across the scan pool) and immediately filter.
TEST(ConcurrentScanTest, LazyIndexBuildRacesFilters) {
  for (int round = 0; round < 4; ++round) {
    Table table = MultiShardTable(3000, 333);  // 10 shards, ragged last
    PredicateSet predicates = {EqPredicate{0, 0}, EqPredicate{1, 0}};
    ASSERT_TRUE(NormalizePredicates(&predicates).ok());
    std::vector<uint32_t> expected = NaiveFilterRows(table, predicates);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < 8; ++i) {
          if (FilterRows(table, predicates) != expected) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
  }
}

/// The serving funnel under contention: concurrent batched multi-filters
/// (the EngineHost batch-solve shape) over a shared multi-shard table.
TEST(ConcurrentScanTest, BatchedMultiFiltersConcurrently) {
  Table table = MultiShardTable(2500, 400);  // 7 shards
  std::vector<PredicateSet> sets = {
      {},  // kAllRows through the batch path
      {EqPredicate{0, 0}},
      {EqPredicate{0, 0}, EqPredicate{1, 1}},
      {EqPredicate{1, 3}},
  };
  for (auto& set : sets) ASSERT_TRUE(NormalizePredicates(&set).ok());
  std::vector<const PredicateSet*> pointers;
  for (const auto& set : sets) pointers.push_back(&set);
  std::vector<std::vector<uint32_t>> expected;
  for (const auto& set : sets) expected.push_back(NaiveFilterRows(table, set));

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 5; ++c) {
    callers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        std::vector<std::vector<uint32_t>> batched = FilterRowsMulti(table, pointers);
        for (size_t q = 0; q < sets.size(); ++q) {
          if (batched[q] != expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace vq
