// Index-aware planning for conjunctive equality filters.
//
// Every subset the system materializes -- preprocessor query scopes, the
// serving layer's on-demand misses, instance construction -- funnels through
// FilterRows (relational/predicate.h). The planner answers those through the
// table's inverted index (storage/index.h) when posting lists are selective,
// by galloping intersection of the sorted lists; when the per-(dim,value)
// counts say a pass over the columns is cheaper (barely selective
// predicates), it falls back to a vectorized column scan. Both
// paths emit row ids in ascending order, so results are bit-identical to the
// seed row-at-a-time loop (tests/relational/scan_planner_test.cc proves this
// by property testing all three).
//
// Since the sharded-storage refactor a filter executes PER SHARD: each shard
// answers over its own posting lists (or its slice of the columns) into a
// ScanPartial (relational/scan_partial.h), and multi-shard tables fan the
// shard tasks across the scan pool (util/thread_pool.h) before merging the
// partials in shard order -- which keeps results bit-identical to the
// single-shard path (tests/relational/sharded_scan_test.cc property-tests
// this across shard counts). A caller that is itself a worker of the pool
// runs its shards inline instead: a nested fan-out could block every worker
// on tasks queued behind it.
#ifndef VQ_RELATIONAL_SCAN_PLANNER_H_
#define VQ_RELATIONAL_SCAN_PLANNER_H_

#include <cstdint>
#include <vector>

#include "relational/predicate.h"
#include "relational/scan_partial.h"
#include "storage/table.h"
#include "util/scan_stats.h"

namespace vq {

class ThreadPool;

/// Process-wide statistics instance: FilterRows (the funnel every subsystem
/// materializes subsets through) records into and plans from it, so the
/// whole serving fleet shares one learned cost model -- and new tables plan
/// from it until their own per-table statistics (hung off the lazily built
/// TableIndex, see ScanPlannerOptions::per_table_stats) have enough
/// samples. bench/scan_throughput.cpp reports its state into
/// BENCH_scan.json.
ScanStats& GlobalScanStats();

/// How a conjunctive filter will be executed.
enum class ScanStrategy {
  kAllRows,      ///< no predicates: emit every row id
  kEmptyResult,  ///< some predicate's value occurs in no row (O(1) answer)
  kPostings,     ///< galloping intersection of sorted posting lists
  kColumnScan,   ///< vectorized column scan (the fallback path)
};

const char* ScanStrategyName(ScanStrategy strategy);

/// One planned filter: the chosen strategy plus the index statistics that
/// drove the decision (exposed for tests and the scan bench).
struct ScanPlan {
  ScanStrategy strategy = ScanStrategy::kColumnScan;
  /// Length of the shortest posting list among the predicates; an upper
  /// bound on (and estimate of) the result size.
  size_t estimated_rows = 0;
  /// Index into the predicate set of the shortest posting list (the
  /// intersection driver); -1 for kAllRows/kEmptyResult.
  int driver = -1;
};

/// Planner knobs (defaults tuned by bench/scan_throughput.cpp).
struct ScanPlannerOptions {
  /// Posting intersection is chosen when `shortest posting list *
  /// cost_factor <= table rows` (each driver row costs ~one galloping probe
  /// per extra predicate versus ~one comparison per table row for the scan).
  /// A single predicate always uses its posting list: the answer is a copy.
  /// When `stats` is set, this value only seeds the decision until both
  /// paths have been observed; afterwards stats->CostFactor() replaces it.
  double cost_factor = 4.0;
  /// Forces kColumnScan (tests/benches measuring the fallback path).
  bool force_scan = false;
  /// Statistics feedback: PlanScan draws its cost factor from here and
  /// PlannedFilterRows/PlannedFilterRowsPartials record observed execution
  /// costs back. nullptr keeps the fixed-cost_factor behavior (tests that
  /// assert specific plans stay deterministic). When statistics are active,
  /// every ScanStats::kProbePeriod-th eligible multi-predicate filter
  /// executes the path the planner disfavored (identical results, see
  /// ScanStats::TakeProbe), so a clamped factor can always recover.
  ScanStats* stats = nullptr;
  /// Prefer the table's own statistics (TableIndex::scan_stats()) over
  /// `stats` once that table has at least `table_stats_min_samples` on BOTH
  /// paths. A process-wide EWMA blends tables of very different row counts
  /// -- a tiny table's cheap scans would lower the learned factor a huge
  /// table then plans with -- so the funnel (FilterRows) turns this on:
  /// recording always trains the per-table AND the shared statistics,
  /// planning uses the per-table model as soon as it is warm and the shared
  /// one as the cold-start fallback. Off by default so tests that
  /// inject a specific ScanStats stay deterministic.
  bool per_table_stats = false;
  uint64_t table_stats_min_samples = 16;
  /// Pool for the multi-shard fan-out; nullptr uses the process-wide
  /// ScanPool(). Benches inject fixed-size pools here to measure the
  /// rows x threads scaling curve; tests inject small pools to exercise the
  /// parallel merge deterministically on any machine. Single-shard tables
  /// never touch a pool.
  ThreadPool* pool = nullptr;
};

/// Plans one conjunction against `table` (builds the table index on first
/// use; the build is one pass per dimension, amortized over all queries).
ScanPlan PlanScan(const Table& table, const PredicateSet& predicates,
                  const ScanPlannerOptions& options = {});

/// Executes `plan` for the predicates it was planned from (per shard,
/// sequentially, merged -- the parallel path lives in the Planned* calls).
std::vector<uint32_t> ExecuteScanPlan(const Table& table,
                                      const PredicateSet& predicates,
                                      const ScanPlan& plan);

/// Plan + execute in one call (what FilterRows routes through).
std::vector<uint32_t> PlannedFilterRows(const Table& table,
                                        const PredicateSet& predicates,
                                        const ScanPlannerOptions& options = {});

/// Plan + execute, returning the per-shard partials UNMERGED (ascending
/// shard order, one entry per shard). The composable form consumers that
/// want shard-local results build on; PlannedFilterRows is exactly
/// MergeScanPartials() of this.
ScanPartials PlannedFilterRowsPartials(const Table& table,
                                       const PredicateSet& predicates,
                                       const ScanPlannerOptions& options = {});

/// The two execution paths, exposed for equivalence tests and benches.
/// Postings: per-shard galloping intersection, shortest list first. Scan:
/// one column at a time per shard, first predicate's matches refined by each
/// further column. Both sequential over shards.
std::vector<uint32_t> FilterRowsPostings(const Table& table,
                                         const PredicateSet& predicates);
std::vector<uint32_t> FilterRowsColumnScan(const Table& table,
                                           const PredicateSet& predicates);

}  // namespace vq

#endif  // VQ_RELATIONAL_SCAN_PLANNER_H_
