#include "relational/scan_planner.h"

#include <algorithm>
#include <mutex>  // std::call_once for metric-instrument latches (not locking)
#include <numeric>

#include "obs/metrics.h"
#include "storage/index.h"
#include "util/stopwatch.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace vq {

ScanStats& GlobalScanStats() {
  static ScanStats* stats = new ScanStats();  // never destroyed: outlives workers
  return *stats;
}

namespace {

/// The statistics instance that STEERS this plan: the table's own once it is
/// warm on both paths (per_table_stats), else the caller-injected (usually
/// process-wide) instance, else nullptr (fixed cost factor).
ScanStats* PlanningStats(const Table& table, const ScanPlannerOptions& options) {
  if (options.per_table_stats) {
    ScanStats& local = table.index().scan_stats();
    if (local.postings_samples() >= options.table_stats_min_samples &&
        local.scan_samples() >= options.table_stats_min_samples) {
      return &local;
    }
  }
  return options.stats;
}

/// Filter-execution latency by path, fed ONLY from the already-stopwatched
/// statistics samples: the untimed fast paths (single-predicate postings,
/// O(1) plans, statistics off) stay untimed.
obs::LatencyHistogram* FilterHistogram(bool postings) {
  static obs::LatencyHistogram* hists[2] = {
      obs::MetricsRegistry::Global().GetHistogram(obs::MetricsRegistry::WithLabel(
          "vq_scan_filter_seconds", "path", "scan")),
      obs::MetricsRegistry::Global().GetHistogram(obs::MetricsRegistry::WithLabel(
          "vq_scan_filter_seconds", "path", "postings")),
  };
  return hists[postings ? 1 : 0];
}

/// Recording trains the per-table model (when enabled) AND the injected
/// shared one, so a cold table converges to its own statistics while the
/// process-wide fallback keeps learning from every table.
void RecordPostingsSample(const Table& table, const ScanPlannerOptions& options,
                          size_t driver_rows, double seconds) {
  if (options.stats != nullptr) options.stats->RecordPostings(driver_rows, seconds);
  if (options.per_table_stats) {
    table.index().scan_stats().RecordPostings(driver_rows, seconds);
  }
  FilterHistogram(/*postings=*/true)->Record(seconds);
}

void RecordScanSample(const Table& table, const ScanPlannerOptions& options,
                      size_t table_rows, double seconds) {
  if (options.stats != nullptr) options.stats->RecordScan(table_rows, seconds);
  if (options.per_table_stats) {
    table.index().scan_stats().RecordScan(table_rows, seconds);
  }
  FilterHistogram(/*postings=*/false)->Record(seconds);
}

/// True when statistics feedback is active for this call at all (either a
/// shared instance was injected or per-table statistics are on).
bool RecordsStats(const ScanPlannerOptions& options) {
  return options.stats != nullptr || options.per_table_stats;
}

/// Plan-choice counter for `strategy`. The planner is a free function with
/// no owning object to hold instruments, so these live as function-local
/// statics against the process-global registry (which is never destroyed);
/// after the first call each bump is one relaxed atomic add.
obs::Counter* PlanCounter(ScanStrategy strategy) {
  static obs::Counter* counters[4] = {
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "all-rows")),
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "empty")),
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "postings")),
      obs::MetricsRegistry::Global().GetCounter(obs::MetricsRegistry::WithLabel(
          "vq_scan_plans_total", "strategy", "column-scan")),
  };
  return counters[static_cast<size_t>(strategy)];
}

/// Shards dispatched to the scan pool across all parallel fan-outs (the
/// fan-out width counter: each parallel filter adds its shard count).
obs::Counter* FanoutCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "vq_scan_shard_fanout_total");
  return counter;
}

/// Per-shard filter latency under a SAMPLED shard label: the first
/// kShardLabels ordinals get their own series, everything beyond collapses
/// into shard="other" -- a 48-shard table must not mint 48 histogram series.
constexpr size_t kShardLabels = 8;
obs::LatencyHistogram* ShardHistogram(size_t shard) {
  static obs::LatencyHistogram* hists[kShardLabels + 1] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (size_t s = 0; s < kShardLabels; ++s) {
      hists[s] = obs::MetricsRegistry::Global().GetHistogram(
          obs::MetricsRegistry::WithLabel("vq_scan_shard_filter_seconds",
                                          "shard", std::to_string(s)));
    }
    hists[kShardLabels] = obs::MetricsRegistry::Global().GetHistogram(
        obs::MetricsRegistry::WithLabel("vq_scan_shard_filter_seconds",
                                        "shard", "other"));
  });
  return hists[std::min(shard, kShardLabels)];
}

/// Forced-alternate-path exploration, shared by the single and batched
/// funnels: every kProbePeriod-th eligible decision (multi-predicate, both
/// paths runnable, statistics active) flips `plan` to the path the planner
/// did NOT pick. Only executed paths are timed, so without this an outlier
/// streak that clamps the factor starves the disfavored path of samples
/// forever; the probe guarantees both EWMAs keep training. Both paths
/// return identical rows, so a probe can never change a result. Returns
/// true when the plan was flipped.
bool MaybeProbeAlternate(const Table& table, const ScanPlannerOptions& options,
                         const PredicateSet& predicates, ScanPlan* plan) {
  if (options.force_scan || predicates.size() <= 1) return false;
  if (plan->strategy != ScanStrategy::kPostings &&
      plan->strategy != ScanStrategy::kColumnScan) {
    return false;
  }
  // Probe cost must stay comparable to the favored path's. Flipping a scan
  // plan to postings is always cheap (the intersection visits at most the
  // driver rows, a subset of what the scan visits). Flipping a POSTINGS
  // plan to a full column scan costs NumRows/driver_rows times the favored
  // path -- unbounded for selective conjunctions on big tables -- so it is
  // only probed while that ratio is within the factor clamp: beyond
  // kMaxFactor the learned factor saturates and the extra sample could not
  // change any decision anyway, making an expensive probe pure waste.
  if (plan->strategy == ScanStrategy::kPostings &&
      static_cast<double>(table.NumRows()) >
          static_cast<double>(plan->estimated_rows) * ScanStats::kMaxFactor) {
    return false;
  }
  ScanStats* steering = PlanningStats(table, options);
  if (steering == nullptr || !steering->TakeProbe()) return false;
  plan->strategy = plan->strategy == ScanStrategy::kPostings
                       ? ScanStrategy::kColumnScan
                       : ScanStrategy::kPostings;
  static obs::Counter* probes =
      obs::MetricsRegistry::Global().GetCounter("vq_scan_probes_total");
  probes->Increment();
  return true;
}

/// Galloping (exponential-probe) lower bound: first position in [lo, size)
/// with list[pos] >= row. Doubles the step from the cursor before the binary
/// search, so intersecting a short driver against a long list costs
/// O(short * log(long / short)) instead of O(short * log(long)).
size_t GallopLowerBound(std::span<const uint32_t> list, size_t lo, uint32_t row) {
  size_t size = list.size();
  size_t step = 1;
  size_t hi = lo;
  while (hi < size && list[hi] < row) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  if (hi > size) hi = size;
  const uint32_t* first = list.data() + lo;
  const uint32_t* bound = std::lower_bound(first, list.data() + hi, row);
  return static_cast<size_t>(bound - list.data());
}

/// In-place intersection of sorted `result` with sorted `list` by galloping.
void GallopIntersect(std::vector<uint32_t>* result, std::span<const uint32_t> list) {
  size_t kept = 0;
  size_t cursor = 0;
  for (uint32_t row : *result) {
    cursor = GallopLowerBound(list, cursor, row);
    if (cursor == list.size()) break;
    if (list[cursor] == row) {
      (*result)[kept++] = row;
      ++cursor;
    }
  }
  result->resize(kept);
}

// ----------------------------------------------------- per-shard execution
// Each shard answers the filter over ITS posting lists or ITS slice of the
// table's columns, emitting shard-local ascending row ids (the ScanPartial
// contract). For a single-shard table these are exactly the pre-shard
// global-id paths, so results are bit-identical by construction; for
// multi-shard tables shard-order concatenation restores the global order.

/// Galloping intersection over one shard, shortest shard-local list first.
ScanPartial ShardFilterPostings(const ShardIndex& shard,
                                const PredicateSet& predicates) {
  ScanPartial partial{shard.ordinal(), shard.base(), {}};
  std::vector<size_t> order(predicates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shard.Count(static_cast<size_t>(predicates[a].dim), predicates[a].value) <
           shard.Count(static_cast<size_t>(predicates[b].dim), predicates[b].value);
  });
  std::span<const uint32_t> driver = shard.Postings(
      static_cast<size_t>(predicates[order[0]].dim), predicates[order[0]].value);
  partial.rows.assign(driver.begin(), driver.end());
  for (size_t i = 1; i < order.size() && !partial.rows.empty(); ++i) {
    const EqPredicate& p = predicates[order[i]];
    GallopIntersect(&partial.rows,
                    shard.Postings(static_cast<size_t>(p.dim), p.value));
  }
  return partial;
}

/// Column scan over one shard's row range of the table's contiguous columns.
ScanPartial ShardFilterColumnScan(const Table& table, const ShardIndex& shard,
                                  const PredicateSet& predicates) {
  ScanPartial partial{shard.ordinal(), shard.base(), {}};
  uint32_t base = shard.base();
  uint32_t rows = shard.num_rows();
  if (predicates.empty()) {
    partial.rows.resize(rows);
    std::iota(partial.rows.begin(), partial.rows.end(), 0);
    return partial;
  }
  // First predicate: tight scan over the shard's slice of one code column.
  {
    const ValueId* column =
        table.DimColumn(static_cast<size_t>(predicates[0].dim)).data() + base;
    ValueId want = predicates[0].value;
    for (uint32_t r = 0; r < rows; ++r) {
      if (column[r] == want) partial.rows.push_back(r);
    }
  }
  // Each further predicate refines the survivors against its column.
  for (size_t i = 1; i < predicates.size() && !partial.rows.empty(); ++i) {
    const ValueId* column =
        table.DimColumn(static_cast<size_t>(predicates[i].dim)).data() + base;
    ValueId want = predicates[i].value;
    size_t kept = 0;
    for (uint32_t row : partial.rows) {
      if (column[row] == want) partial.rows[kept++] = row;
    }
    partial.rows.resize(kept);
  }
  return partial;
}

/// One shard's share of `plan`. kEmptyResult never reaches here (handled
/// without touching shards).
ScanPartial ExecuteShard(const Table& table, const ShardIndex& shard,
                         const PredicateSet& predicates, ScanStrategy strategy) {
  switch (strategy) {
    case ScanStrategy::kAllRows: {
      ScanPartial partial{shard.ordinal(), shard.base(), {}};
      partial.rows.resize(shard.num_rows());
      std::iota(partial.rows.begin(), partial.rows.end(), 0);
      return partial;
    }
    case ScanStrategy::kEmptyResult:
      return ScanPartial{shard.ordinal(), shard.base(), {}};
    case ScanStrategy::kPostings:
      return ShardFilterPostings(shard, predicates);
    case ScanStrategy::kColumnScan:
      return ShardFilterColumnScan(table, shard, predicates);
  }
  return ShardFilterColumnScan(table, shard, predicates);
}

/// Empty partials for every shard (the kEmptyResult answer, shaped like any
/// other partial set so consumers never special-case it).
ScanPartials EmptyPartials(const TableIndex& index) {
  ScanPartials partials;
  partials.reserve(index.num_shards());
  for (const ShardIndex& shard : index.shards()) {
    partials.push_back(ScanPartial{shard.ordinal(), shard.base(), {}});
  }
  return partials;
}

ThreadPool* ResolvePool(const ScanPlannerOptions& options) {
  return options.pool != nullptr ? options.pool : &ScanPool();
}

/// True when this call should fan shards out instead of looping them: more
/// than one shard, a pool that can actually parallelize, and a caller that
/// is not itself a worker of that pool (a nested fan-out would block a
/// worker on tasks the saturated pool may never start).
bool ShouldFanOut(const TableIndex& index, ThreadPool* pool) {
  return index.num_shards() > 1 && pool->NumThreads() > 1 &&
         pool->CurrentWorkerIndex() == ThreadPool::kNotAWorker;
}

/// Fans `run_shard(s)` for every shard across `pool` and blocks until THIS
/// call's tasks finish (a private countdown, not pool Wait(): concurrent
/// filters share the pool and must not wait on each other's tasks).
void RunShardFanout(const TableIndex& index, ThreadPool* pool,
                    const std::function<void(size_t)>& run_shard) {
  size_t num_shards = index.num_shards();
  FanoutCounter()->Increment(num_shards);
  Mutex mutex;
  CondVar done;
  size_t remaining = num_shards;  // guarded by `mutex` (GUARDED_BY is
                                  // member-only; locals are not annotatable)
  for (size_t s = 0; s < num_shards; ++s) {
    pool->Submit([&, s] {
      Stopwatch watch;
      run_shard(s);
      ShardHistogram(s)->Record(watch.ElapsedSeconds());
      MutexLock lock(mutex);
      if (--remaining == 0) done.NotifyOne();
    });
  }
  MutexLock lock(mutex);
  while (remaining != 0) done.Wait(mutex);
}

/// Executes `plan` over every shard into partials: sequentially for
/// single-shard tables (exactly the pre-shard code path), else fanned out
/// across the pool.
ScanPartials ExecutePlanPartials(const Table& table,
                                 const PredicateSet& predicates,
                                 const ScanPlan& plan,
                                 const ScanPlannerOptions& options) {
  const TableIndex& index = table.index();
  if (plan.strategy == ScanStrategy::kEmptyResult) return EmptyPartials(index);
  ScanPartials partials(index.num_shards());
  ThreadPool* pool = ResolvePool(options);
  if (!ShouldFanOut(index, pool)) {
    for (size_t s = 0; s < index.num_shards(); ++s) {
      partials[s] = ExecuteShard(table, index.shard(s), predicates, plan.strategy);
    }
    return partials;
  }
  RunShardFanout(index, pool, [&](size_t s) {
    partials[s] = ExecuteShard(table, index.shard(s), predicates, plan.strategy);
  });
  return partials;
}

}  // namespace

const char* ScanStrategyName(ScanStrategy strategy) {
  switch (strategy) {
    case ScanStrategy::kAllRows: return "all-rows";
    case ScanStrategy::kEmptyResult: return "empty";
    case ScanStrategy::kPostings: return "postings";
    case ScanStrategy::kColumnScan: return "column-scan";
  }
  return "unknown";
}

ScanPlan PlanScan(const Table& table, const PredicateSet& predicates,
                  const ScanPlannerOptions& options) {
  ScanPlan plan;
  if (predicates.empty()) {
    plan.strategy = ScanStrategy::kAllRows;
    plan.estimated_rows = table.NumRows();
    PlanCounter(plan.strategy)->Increment();
    return plan;
  }
  const TableIndex& index = table.index();
  size_t min_count = table.NumRows();
  int driver = 0;
  for (size_t i = 0; i < predicates.size(); ++i) {
    const EqPredicate& p = predicates[i];
    size_t count = index.Count(static_cast<size_t>(p.dim), p.value);
    if (count == 0) {
      plan.strategy = ScanStrategy::kEmptyResult;
      plan.estimated_rows = 0;
      PlanCounter(plan.strategy)->Increment();
      return plan;
    }
    if (count < min_count) {
      min_count = count;
      driver = static_cast<int>(i);
    }
  }
  plan.estimated_rows = min_count;
  plan.driver = driver;
  if (options.force_scan) {
    plan.strategy = ScanStrategy::kColumnScan;
    PlanCounter(plan.strategy)->Increment();
    return plan;
  }
  // A single predicate is a posting-list copy -- never scan. Conjunctions
  // use postings while the driver list is selective enough that galloping
  // probes beat one comparison per table row. With statistics feedback the
  // ratio comes from the observed EWMA costs instead of the fixed default
  // (the table's own statistics once warm, the shared instance until then).
  ScanStats* stats = PlanningStats(table, options);
  double cost_factor = stats != nullptr ? stats->CostFactor(options.cost_factor)
                                        : options.cost_factor;
  bool selective = static_cast<double>(min_count) * cost_factor <=
                   static_cast<double>(table.NumRows());
  plan.strategy = (predicates.size() == 1 || selective) ? ScanStrategy::kPostings
                                                        : ScanStrategy::kColumnScan;
  PlanCounter(plan.strategy)->Increment();
  return plan;
}

std::vector<uint32_t> FilterRowsPostings(const Table& table,
                                         const PredicateSet& predicates) {
  const TableIndex& index = table.index();
  ScanPartials partials;
  partials.reserve(index.num_shards());
  for (const ShardIndex& shard : index.shards()) {
    partials.push_back(ShardFilterPostings(shard, predicates));
  }
  return MergeScanPartials(std::move(partials));
}

std::vector<uint32_t> FilterRowsColumnScan(const Table& table,
                                           const PredicateSet& predicates) {
  const TableIndex& index = table.index();
  ScanPartials partials;
  partials.reserve(index.num_shards());
  for (const ShardIndex& shard : index.shards()) {
    partials.push_back(ShardFilterColumnScan(table, shard, predicates));
  }
  return MergeScanPartials(std::move(partials));
}

std::vector<uint32_t> ExecuteScanPlan(const Table& table,
                                      const PredicateSet& predicates,
                                      const ScanPlan& plan) {
  const TableIndex& index = table.index();
  if (plan.strategy == ScanStrategy::kEmptyResult) return {};
  ScanPartials partials;
  partials.reserve(index.num_shards());
  for (const ShardIndex& shard : index.shards()) {
    partials.push_back(ExecuteShard(table, shard, predicates, plan.strategy));
  }
  return MergeScanPartials(std::move(partials));
}

ScanPartials PlannedFilterRowsPartials(const Table& table,
                                       const PredicateSet& predicates,
                                       const ScanPlannerOptions& options) {
  ScanPlan plan = PlanScan(table, predicates, options);
  (void)MaybeProbeAlternate(table, options, predicates, &plan);
  // Statistics feedback: time the execution and charge it to the path that
  // actually ran, normalized by that path's cost driver. Only executions
  // that actually train the model pay for the clock: single-predicate
  // postings are unconditional copies (they say nothing about intersection
  // cost), and kAllRows/kEmptyResult are O(1) answers -- none of them may
  // tax the nanoseconds-scale fast path with stopwatch calls. On
  // multi-shard tables the sample is the fan-out's WALL time: the learned
  // cost is the cost the caller actually observes.
  bool trains_postings = plan.strategy == ScanStrategy::kPostings &&
                         predicates.size() > 1;
  bool trains_scan = plan.strategy == ScanStrategy::kColumnScan;
  if (!RecordsStats(options) || (!trains_postings && !trains_scan)) {
    return ExecutePlanPartials(table, predicates, plan, options);
  }
  Stopwatch watch;
  ScanPartials partials = ExecutePlanPartials(table, predicates, plan, options);
  double seconds = watch.ElapsedSeconds();
  if (trains_postings) {
    RecordPostingsSample(table, options, plan.estimated_rows, seconds);
  } else {
    RecordScanSample(table, options, table.NumRows(), seconds);
  }
  return partials;
}

std::vector<uint32_t> PlannedFilterRows(const Table& table,
                                        const PredicateSet& predicates,
                                        const ScanPlannerOptions& options) {
  return MergeScanPartials(PlannedFilterRowsPartials(table, predicates, options));
}

std::vector<ScanPartials> PlannedFilterRowsMultiPartials(
    const Table& table, const std::vector<const PredicateSet*>& predicate_sets,
    const ScanPlannerOptions& options) {
  std::vector<ScanPartials> out(predicate_sets.size());
  // Selective sets are answered from posting lists; the rest share one pass.
  std::vector<size_t> scan_sets;
  for (size_t q = 0; q < predicate_sets.size(); ++q) {
    const PredicateSet& predicates = *predicate_sets[q];
    ScanPlan plan = PlanScan(table, predicates, options);
    // A probed postings-planned set runs its own timed column scan instead
    // of joining the shared pass, so the probe's sample is attributable; a
    // probed scan-planned set executes postings individually as usual.
    bool probed = MaybeProbeAlternate(table, options, predicates, &plan);
    if (plan.strategy == ScanStrategy::kColumnScan && probed) {
      Stopwatch watch;
      out[q] = ExecutePlanPartials(table, predicates, plan, options);
      RecordScanSample(table, options, table.NumRows(), watch.ElapsedSeconds());
    } else if (plan.strategy == ScanStrategy::kColumnScan) {
      scan_sets.push_back(q);
    } else if (RecordsStats(options) &&
               plan.strategy == ScanStrategy::kPostings &&
               predicates.size() > 1) {
      // Same single-path rule as PlannedFilterRows: only executions that
      // train the model pay for the clock.
      Stopwatch watch;
      out[q] = ExecutePlanPartials(table, predicates, plan, options);
      RecordPostingsSample(table, options, plan.estimated_rows,
                           watch.ElapsedSeconds());
    } else {
      out[q] = ExecutePlanPartials(table, predicates, plan, options);
    }
  }
  if (!scan_sets.empty()) {
    const TableIndex& index = table.index();
    for (size_t q : scan_sets) out[q] = EmptyPartials(index);
    // The shared pass visits each shard once, checking every batched set
    // against each row of that shard -- the per-shard unit of the same
    // one-pass contract the unsharded code kept per table. Multi-shard
    // tables fan the shard passes out like the single-filter path.
    auto scan_shard = [&](size_t s) {
      const ShardIndex& shard = index.shard(s);
      uint32_t base = shard.base();
      uint32_t rows = shard.num_rows();
      for (uint32_t r = 0; r < rows; ++r) {
        for (size_t q : scan_sets) {
          if (RowMatches(table, base + r, *predicate_sets[q])) {
            out[q][s].rows.push_back(r);
          }
        }
      }
    };
    ThreadPool* pool = ResolvePool(options);
    size_t n = table.NumRows();
    Stopwatch watch;
    if (!ShouldFanOut(index, pool)) {
      for (size_t s = 0; s < index.num_shards(); ++s) scan_shard(s);
    } else {
      RunShardFanout(index, pool, scan_shard);
    }
    // The batch shares ONE pass: charge its per-row cost once, normalized
    // by the rows scanned (the planner compares per-set costs, and each
    // set's marginal share of a shared pass is at most one full scan).
    RecordScanSample(table, options, n * scan_sets.size(), watch.ElapsedSeconds());
  }
  return out;
}

std::vector<std::vector<uint32_t>> PlannedFilterRowsMulti(
    const Table& table, const std::vector<const PredicateSet*>& predicate_sets,
    const ScanPlannerOptions& options) {
  std::vector<ScanPartials> partials =
      PlannedFilterRowsMultiPartials(table, predicate_sets, options);
  std::vector<std::vector<uint32_t>> out(partials.size());
  for (size_t q = 0; q < partials.size(); ++q) {
    out[q] = MergeScanPartials(std::move(partials[q]));
  }
  return out;
}

}  // namespace vq
