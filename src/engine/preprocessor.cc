#include "engine/preprocessor.h"

#include <numeric>
#include <optional>

#include "util/simd.h"
#include "util/stopwatch.h"

namespace vq {

Result<SpeechStore> Preprocess(const Table& table, const Configuration& config,
                               const PreprocessOptions& options,
                               PreprocessStats* stats) {
  Stopwatch watch;
  VQ_ASSIGN_OR_RETURN(ProblemGenerator generator,
                      ProblemGenerator::Create(&table, config));
  std::vector<VoiceQuery> queries = generator.GenerateQueries();

  SummarizerOptions summarizer;
  summarizer.max_facts = config.max_facts;
  summarizer.max_fact_dims = config.max_fact_dims;
  summarizer.algorithm = options.algorithm;
  summarizer.exact_timeout_seconds = options.exact_timeout_seconds;
  summarizer.instance.prior_kind = config.prior;
  summarizer.instance.prior_value = config.prior_value;

  // One exact base aggregate per target: the merged instance of the empty
  // query over every row. Each query's instance is a slice of it
  // (SliceInstance) instead of a filter over the raw rows and a re-merge;
  // the kGlobalAverage prior is computed here once per target and inherited
  // by the slices. The aggregates are read-only once built, so the workers
  // share them; they are freed when this call returns.
  Stopwatch aggregate_watch;
  std::vector<std::optional<SummaryInstance>> bases(table.NumTargets());
  {
    std::vector<uint32_t> all_rows(table.NumRows());
    std::iota(all_rows.begin(), all_rows.end(), 0u);
    for (const VoiceQuery& query : queries) {
      auto& base = bases[static_cast<size_t>(query.target_index)];
      if (base.has_value()) continue;
      auto built = BuildInstanceFromRows(table, {}, query.target_index, all_rows,
                                         summarizer.instance);
      // An empty table has no aggregate: every query of the target is skipped.
      if (built.ok()) base = std::move(built).value();
    }
  }
  double aggregate_seconds = aggregate_watch.ElapsedSeconds();

  struct QueryTimes {
    double slice = 0.0;
    double prepare = 0.0;
    double solve = 0.0;     // Run + RenderSpeech
    double solver = 0.0;    // the algorithm's own elapsed_seconds
  };
  std::vector<std::unique_ptr<StoredSpeech>> results(queries.size());
  std::vector<QueryTimes> times(queries.size());

  auto solve_one = [&](size_t i) {
    const VoiceQuery& query = queries[i];
    const auto& base = bases[static_cast<size_t>(query.target_index)];
    if (!base.has_value()) return;
    Stopwatch watch;
    auto instance = SliceInstance(*base, query.predicates, summarizer.instance);
    times[i].slice = watch.ElapsedSeconds();
    if (!instance.ok()) return;  // empty subsets are simply skipped
    watch.Restart();
    auto prepared = PreparedProblem::FromInstance(std::move(instance).value(), summarizer);
    times[i].prepare = watch.ElapsedSeconds();
    if (!prepared.ok()) return;
    watch.Restart();
    SummaryResult result = prepared.value().Run(summarizer);
    auto stored = std::make_unique<StoredSpeech>();
    stored->query = query;
    stored->speech = RenderSpeech(table, prepared.value().instance(),
                                  prepared.value().catalog(), result,
                                  query.predicates, options.speech_template);
    times[i].solve = watch.ElapsedSeconds();
    times[i].solver = result.elapsed_seconds;
    results[i] = std::move(stored);
  };

  // Pre-processing is the dynamic registry's last step before a dataset
  // becomes routable, and the serving layer's first on-demand miss filters
  // through the table's inverted index (relational/scan_planner.h), so the
  // index is built here, even with zero generated queries; on a multi-shard
  // (paper-scale) table the build fans shard builds across the scan pool.
  // Touching the SIMD kernel table latches the runtime CPU dispatch (one
  // probe, see util/simd.h) before the workers fan out, so every solve --
  // and the per-fact block-delta tables FactCatalog::Build warms for each
  // problem -- runs on the selected kernels from the first query on.
  (void)table.index();
  (void)simd::Active();

  if (options.pool != nullptr) {
    ParallelFor(options.pool, queries.size(), solve_one);
  } else {
    for (size_t i = 0; i < queries.size(); ++i) solve_one(i);
  }

  SpeechStore store;
  double sum_scaled = 0.0;
  QueryTimes stage_seconds;
  size_t num_speeches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    stage_seconds.slice += times[i].slice;
    stage_seconds.prepare += times[i].prepare;
    stage_seconds.solve += times[i].solve;
    stage_seconds.solver += times[i].solver;
    if (results[i] == nullptr) continue;
    sum_scaled += results[i]->speech.scaled_utility;
    ++num_speeches;
    store.Put(std::move(*results[i]));
  }

  if (stats != nullptr) {
    stats->num_queries = queries.size();
    stats->num_speeches = num_speeches;
    stats->total_seconds = watch.ElapsedSeconds();
    stats->sum_scaled_utility = sum_scaled;
    stats->sum_seconds = stage_seconds.solver;
    stats->aggregate_seconds = aggregate_seconds;
    stats->slice_seconds = stage_seconds.slice;
    stats->prepare_seconds = stage_seconds.prepare;
    stats->solve_seconds = stage_seconds.solve;
  }
  return store;
}

}  // namespace vq
