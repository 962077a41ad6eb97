// The single-dataset serving front end: the running example behind a
// RoutingService over a one-entry registry, answering on demand, falling back
// to the store, coalescing identical misses and matching the engine's answers.
#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "serve/router.h"
#include "storage/datasets.h"

namespace vq {
namespace serve {
namespace {

/// The running example (Table II) served alone: a one-entry registry under
/// a configuration over `dimensions`, with "delays" as a target synonym.
class SingleDatasetTest : public ::testing::Test {
 protected:
  static Configuration RunningExampleConfig(
      std::vector<std::string> dimensions = {"region", "season"}) {
    Configuration config;
    config.table = "running_example";
    config.dimensions = std::move(dimensions);
    config.targets = {"delay"};
    config.max_query_predicates = 2;
    config.max_fact_dims = 2;
    config.max_facts = 3;
    config.prior = PriorKind::kZero;
    return config;
  }

  static void AddRunningExample(DatasetRegistry* registry,
                                Configuration config,
                                std::optional<HostOverrides> policy = {}) {
    ASSERT_TRUE(registry
                    ->AddDataset("re", MakeRunningExampleTable(),
                                 std::move(config), {}, policy,
                                 [](VoiceQueryEngine* engine) {
                                   ASSERT_TRUE(engine->mutable_extractor()
                                                   ->AddTargetSynonym("delays",
                                                                      "delay")
                                                   .ok());
                                 })
                    .ok());
  }
};

TEST_F(SingleDatasetTest, OnDemandSummarizesNonMaterializedQuery) {
  // Pre-process only season queries; ask about a region. The bare engine can
  // only fall back to the all-records speech, the router optimizes the exact
  // subset on demand -- and its answer must match what a full pre-processing
  // run would have stored for region=North.
  DatasetRegistry full;
  AddRunningExample(&full, RunningExampleConfig());
  VoiceQueryEngine::Session session;
  std::string expected_north =
      full.engine("re")->Answer("delays in the North", &session).text;

  DatasetRegistry registry;
  AddRunningExample(&registry, RunningExampleConfig({"season"}));
  VoiceQueryEngine::Session season_session;
  auto engine_answer =
      registry.engine("re")->Answer("delays in the North", &season_session);
  ASSERT_NE(engine_answer.speech, nullptr);
  EXPECT_TRUE(engine_answer.speech->query.predicates.empty())
      << "engine should only find the unfiltered fallback speech";

  RoutingService router(&registry);
  EngineHost* host = router.host("re");
  ASSERT_NE(host, nullptr);
  RoutedResponse routed = router.AnswerNow("delays in the North");
  EXPECT_TRUE(routed.routed);
  EXPECT_TRUE(routed.response.answered);
  EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand);
  EXPECT_EQ(routed.response.text, expected_north);
  EXPECT_NE(routed.response.text, engine_answer.text);
  EXPECT_EQ(host->stats().on_demand_summaries, 1u);

  // The on-demand answer is cached like any other.
  RoutedResponse again = router.AnswerNow("delays in the North");
  EXPECT_TRUE(again.response.cache_hit);
  EXPECT_EQ(again.response.text, expected_north);
  EXPECT_EQ(host->stats().on_demand_summaries, 1u);
}

TEST_F(SingleDatasetTest, HostAnswersHelpRepeatAndOtherInline) {
  DatasetRegistry registry;
  AddRunningExample(&registry, RunningExampleConfig());
  RoutingService router(&registry);
  EngineHost* host = router.host("re");
  ASSERT_NE(host, nullptr);
  ServeResponse help = host->Handle("help");
  EXPECT_EQ(help.type, RequestType::kHelp);
  EXPECT_EQ(help.text, registry.engine("re")->HelpText());
  ServeResponse repeat = host->Handle("repeat that");
  EXPECT_EQ(repeat.type, RequestType::kRepeat);
  EXPECT_EQ(repeat.text, "There is nothing to repeat yet.");
  ServeResponse other = host->Handle("sing me a song please");
  EXPECT_EQ(other.type, RequestType::kOther);
  EXPECT_EQ(other.text,
            "Sorry, I did not understand. Ask for help to hear examples.");
  EXPECT_EQ(host->stats().requests, 3u);
  EXPECT_EQ(host->stats().queries, 0u);
}

TEST_F(SingleDatasetTest, FallbackWhenOnDemandDisabled) {
  HostOverrides policy;
  policy.on_demand_summaries = false;
  DatasetRegistry registry;
  AddRunningExample(&registry, RunningExampleConfig({"season"}), policy);
  RoutingService router(&registry);
  RoutedResponse routed = router.AnswerNow("delays in the North");
  EXPECT_TRUE(routed.response.answered);
  EXPECT_EQ(routed.response.source, AnswerSource::kStoreFallback);
  HostStats stats = router.host("re")->stats();
  EXPECT_EQ(stats.store_fallback_hits, 1u);
  EXPECT_EQ(stats.on_demand_summaries, 0u);
}

TEST_F(SingleDatasetTest, ConcurrentIdenticalMissesSummarizeExactlyOnce) {
  DatasetRegistry registry;
  AddRunningExample(&registry, RunningExampleConfig({"season"}));
  RouterOptions options;
  options.num_threads = 4;
  RoutingService router(&registry, options);

  const int kRequests = 32;
  std::vector<std::future<RoutedResponse>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(router.Submit("delays in the North"));
  }
  std::string text;
  for (auto& future : futures) {
    RoutedResponse routed = future.get();
    EXPECT_TRUE(routed.response.answered);
    if (text.empty()) text = routed.response.text;
    EXPECT_EQ(routed.response.text, text);
  }
  HostStats stats = router.host("re")->stats();
  // The coalescing invariant: one optimization run for the unique query, and
  // every other request either hit the cache or waited on the leader.
  EXPECT_EQ(stats.on_demand_summaries, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced_waits,
            static_cast<uint64_t>(kRequests - 1));
  EXPECT_EQ(router.coalescer().leaders(), 1u);
  EXPECT_EQ(router.coalescer().InFlight(), 0u);
}

TEST_F(SingleDatasetTest, MultiThreadedMixedWorkloadMatchesEngineAnswers) {
  DatasetRegistry registry;
  AddRunningExample(&registry, RunningExampleConfig());
  RouterOptions options;
  options.num_threads = 4;
  options.cache_capacity = 64;
  RoutingService router(&registry, options);

  const std::vector<std::string> regions = {"North", "South", "East", "West"};
  const std::vector<std::string> seasons = {"Winter", "Spring", "Summer", "Fall"};
  std::vector<std::string> requests;
  for (const auto& region : regions) {
    for (const auto& season : seasons) {
      requests.push_back("delays in " + region + " " + season);
    }
    requests.push_back("delays in " + region);
  }
  for (const auto& season : seasons) requests.push_back("delays in " + season);

  // Expected texts from the (single-threaded) engine.
  std::vector<std::string> expected;
  VoiceQueryEngine::Session session;
  for (const auto& request : requests) {
    expected.push_back(registry.engine("re")->Answer(request, &session).text);
  }

  const int kRounds = 5;
  std::vector<std::future<RoutedResponse>> futures;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& request : requests) {
      futures.push_back(router.Submit(request));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse routed = futures[i].get();
    const std::string& request = requests[i % requests.size()];
    EXPECT_TRUE(routed.routed) << request;
    EXPECT_TRUE(routed.response.answered) << request;
    EXPECT_EQ(routed.response.text, expected[i % requests.size()]) << request;
  }
  HostStats stats = router.host("re")->stats();
  EXPECT_EQ(stats.requests, requests.size() * kRounds);
  // Every query is materialized, so nothing needed the optimizer...
  EXPECT_EQ(stats.on_demand_summaries, 0u);
  // ...and after round one the cache answers (modulo coalesced waits).
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries);
}

}  // namespace
}  // namespace serve
}  // namespace vq
