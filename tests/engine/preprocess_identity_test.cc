// Differential identity: every speech Preprocess stores (sliced from the
// per-target base aggregate) must equal, bit for bit, the speech the
// on-demand pipeline computes for the same query: FilterRows ->
// BuildInstanceFromRows -> FromInstance -> Run -> RenderSpeech. Checked on
// the running example and the serving datasets (acs, primaries, flights),
// every target, three shard layouts, sequentially and on a thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine/preprocessor.h"
#include "query/problem_generator.h"
#include "storage/datasets.h"
#include "util/thread_pool.h"

namespace vq {
namespace {

Configuration MakeConfig(const Table& table, std::vector<std::string> dimensions,
                         PriorKind prior = PriorKind::kGlobalAverage) {
  Configuration config;
  config.table = table.name();
  config.dimensions = std::move(dimensions);
  for (size_t t = 0; t < table.NumTargets(); ++t) {
    config.targets.push_back(table.TargetName(t));
  }
  config.max_query_predicates = 2;
  config.max_fact_dims = 2;
  config.max_facts = 3;
  config.prior = prior;
  return config;
}

// The serving layer's on-demand answer to `query`.
struct OnDemand {
  bool ok = false;
  std::string text;
  double scaled_utility = 0.0;
};

OnDemand SolveOnDemand(const Table& table, const VoiceQuery& query,
                       const SummarizerOptions& options) {
  OnDemand out;
  std::vector<uint32_t> rows = FilterRows(table, query.predicates);
  auto instance = BuildInstanceFromRows(table, query.predicates, query.target_index,
                                        rows, options.instance);
  if (!instance.ok()) return out;
  auto prepared = PreparedProblem::FromInstance(std::move(instance).value(), options);
  if (!prepared.ok()) return out;
  SummaryResult result = prepared.value().Run(options);
  Speech speech = RenderSpeech(table, prepared.value().instance(),
                               prepared.value().catalog(), result, query.predicates);
  out.ok = true;
  out.text = std::move(speech.text);
  out.scaled_utility = speech.scaled_utility;
  return out;
}

void ExpectStoreMatchesOnDemand(Table table, const Configuration& config) {
  SummarizerOptions options;
  options.max_facts = config.max_facts;
  options.max_fact_dims = config.max_fact_dims;
  options.instance.prior_kind = config.prior;
  options.instance.prior_value = config.prior_value;
  std::vector<VoiceQuery> queries =
      ProblemGenerator::Create(&table, config).value().GenerateQueries();
  ASSERT_FALSE(queries.empty());

  ThreadPool pool(4);
  size_t rows = table.NumRows();
  // One shard, three equal shards, and four shards with a short last one.
  for (size_t shard_rows : {rows, (rows + 2) / 3, rows / 4 + 1}) {
    table.SetTargetShardRows(std::max<size_t>(shard_rows, 1));
    SCOPED_TRACE(table.name() + " shards of " + std::to_string(shard_rows) + " rows");
    std::vector<OnDemand> expected;
    for (const VoiceQuery& query : queries) {
      expected.push_back(SolveOnDemand(table, query, options));
    }
    for (ThreadPool* workers : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(workers == nullptr ? "sequential" : "4-thread pool");
      PreprocessOptions preprocess;
      preprocess.pool = workers;
      auto store = Preprocess(table, config, preprocess);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      for (size_t i = 0; i < queries.size(); ++i) {
        const StoredSpeech* stored = store.value().FindExact(queries[i]);
        ASSERT_EQ(stored != nullptr, expected[i].ok) << queries[i].Key();
        if (stored == nullptr) continue;
        EXPECT_EQ(stored->speech.text, expected[i].text) << queries[i].Key();
        EXPECT_EQ(stored->speech.scaled_utility, expected[i].scaled_utility)
            << queries[i].Key();
      }
    }
  }
}

TEST(PreprocessIdentityTest, RunningExample) {
  Table table = MakeRunningExampleTable();
  ExpectStoreMatchesOnDemand(table, MakeConfig(table, {"region", "season"}));
  // The subset-average prior is computed by one helper on both paths.
  ExpectStoreMatchesOnDemand(
      table, MakeConfig(table, {"region", "season"}, PriorKind::kSubsetAverage));
}

TEST(PreprocessIdentityTest, Acs) {
  Table table = MakeAcsTable(DefaultRows("acs"), 11);
  ExpectStoreMatchesOnDemand(table, MakeConfig(table, {"borough", "age_group"}));
}

TEST(PreprocessIdentityTest, Primaries) {
  Table table = MakePrimariesTable(DefaultRows("primaries"), 12);
  ExpectStoreMatchesOnDemand(table, MakeConfig(table, {"candidate", "state_region"}));
}

TEST(PreprocessIdentityTest, Flights) {
  Table table = MakeFlightsTable(8000, 13);
  ExpectStoreMatchesOnDemand(
      table, MakeConfig(table, {"airline", "season", "dest_region"}));
}

}  // namespace
}  // namespace vq
