#include "serve/router.h"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "serve/registry.h"
#include "storage/datasets.h"

namespace vq {
namespace serve {
namespace {

constexpr uint64_t kSeed = 20210318;

Configuration FlightsConfig() {
  Configuration config;
  config.table = "flights";
  config.dimensions = {"season", "month"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 2;
  return config;
}

Configuration AcsConfig() {
  Configuration config;
  config.table = "acs";
  config.dimensions = {"borough", "age_group"};
  config.targets = {"visual"};
  config.max_query_predicates = 2;
  return config;
}

Configuration PrimariesConfig() {
  Configuration config;
  config.table = "primaries";
  config.dimensions = {"state_region", "urbanity"};
  config.targets = {"vote_share"};
  config.max_query_predicates = 2;
  return config;
}

/// A three-dataset registry covering the paper's table mix.
class RoutingServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        registry_.AddGenerated("flights", FlightsConfig(), 600, kSeed).ok());
    ASSERT_TRUE(registry_.AddGenerated("acs", AcsConfig(), 400, kSeed).ok());
    ASSERT_TRUE(
        registry_.AddGenerated("primaries", PrimariesConfig(), 400, kSeed)
            .ok());
  }

  DatasetRegistry registry_;
};

TEST_F(RoutingServiceTest, RoutesInterleavedQueriesAcrossThreeDatasets) {
  // (request, expected dataset) pairs interleaving all three vocabularies;
  // none of them names its dataset.
  const std::vector<std::pair<std::string, std::string>> workload = {
      {"cancelled in February", "flights"},
      {"visual impairment in Manhattan", "acs"},
      {"vote share in the Northeast", "primaries"},
      {"cancelled in Winter", "flights"},
      {"visual for Elders", "acs"},
      {"vote share in Urban areas", "primaries"},
      {"cancelled November", "flights"},
      {"visual in Brooklyn", "acs"},
      {"vote share Rural", "primaries"},
  };

  // Expected texts from each dataset's bare engine.
  std::vector<std::string> expected;
  for (const auto& [request, dataset] : workload) {
    const VoiceQueryEngine* engine = registry_.engine(dataset);
    ASSERT_NE(engine, nullptr);
    VoiceQueryEngine::Session session;
    expected.push_back(engine->Answer(request, &session).text);
  }

  RouterOptions options;
  options.num_threads = 4;
  RoutingService router(&registry_, options);
  EXPECT_EQ(router.num_hosts(), 3u);

  std::vector<std::future<RoutedResponse>> futures;
  const int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [request, dataset] : workload) {
      futures.push_back(router.Submit(request));
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse routed = futures[i].get();
    const auto& [request, dataset] = workload[i % workload.size()];
    EXPECT_TRUE(routed.routed) << request;
    EXPECT_EQ(routed.dataset, dataset) << request;
    EXPECT_TRUE(routed.response.answered) << request;
    EXPECT_EQ(routed.response.text, expected[i % workload.size()]) << request;
  }

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, workload.size() * kRounds);
  EXPECT_EQ(stats.routed, stats.requests);
  EXPECT_EQ(stats.unrouted, 0u);
  ASSERT_EQ(stats.per_dataset.size(), 3u);
  for (const auto& [name, count] : stats.per_dataset) {
    EXPECT_EQ(count, 3u * kRounds) << name;
  }
}

TEST_F(RoutingServiceTest, UnroutableQueryIsUnanswerableNotACrash) {
  RoutingService router(&registry_);
  RoutedResponse routed = router.AnswerNow("quarterly revenue trends please");
  EXPECT_FALSE(routed.routed);
  EXPECT_TRUE(routed.dataset.empty());
  EXPECT_FALSE(routed.response.answered);
  EXPECT_EQ(routed.response.source, AnswerSource::kUnanswerable);
  EXPECT_EQ(routed.response.type, RequestType::kOther);
  EXPECT_EQ(router.stats().unrouted, 1u);
}

TEST_F(RoutingServiceTest, UnroutedRepeatAndOtherGetTheCannedReplies) {
  RoutingService router(&registry_);
  RoutedResponse repeat = router.AnswerNow("repeat that");
  EXPECT_FALSE(repeat.routed);
  EXPECT_EQ(repeat.response.type, RequestType::kRepeat);
  EXPECT_EQ(repeat.response.text, "There is nothing to repeat yet.");
  EXPECT_EQ(repeat.response.source, AnswerSource::kUnanswerable);
  EXPECT_FALSE(repeat.response.answered);

  RoutedResponse other = router.AnswerNow("sing me a song please");
  EXPECT_FALSE(other.routed);
  EXPECT_EQ(other.response.type, RequestType::kOther);
  EXPECT_EQ(other.response.text,
            "Sorry, I did not understand. Ask for help to hear examples.");
  EXPECT_EQ(other.response.source, AnswerSource::kUnanswerable);
  EXPECT_FALSE(other.response.answered);
  EXPECT_EQ(router.stats().unrouted, 2u);
}

TEST_F(RoutingServiceTest, UnroutedQueryGetsTheNoSummaryReply) {
  // A route threshold no coverage score reaches: the request is still
  // classified as a query, but no dataset takes it.
  RouterOptions options;
  options.min_route_score = 1e9;
  RoutingService router(&registry_, options);
  RoutedResponse routed = router.AnswerNow("cancelled in February");
  EXPECT_FALSE(routed.routed);
  EXPECT_TRUE(routed.dataset.empty());
  EXPECT_EQ(routed.response.type, RequestType::kSupportedQuery);
  EXPECT_EQ(routed.response.text, "I have no summary matching that question.");
  EXPECT_EQ(routed.response.source, AnswerSource::kUnanswerable);
  EXPECT_FALSE(routed.response.answered);
  EXPECT_EQ(routed.response.status, ServeStatus::kOk);
  EXPECT_EQ(router.stats().unrouted, 1u);
}

TEST_F(RoutingServiceTest, HelpIsServedWithoutRouting) {
  RoutingService router(&registry_);
  RoutedResponse help = router.AnswerNow("help");
  EXPECT_FALSE(help.routed);
  EXPECT_EQ(help.response.type, RequestType::kHelp);
  EXPECT_NE(help.response.text.find("flights"), std::string::npos);
  EXPECT_NE(help.response.text.find("primaries"), std::string::npos);
}

TEST(RoutingIsolationTest, IdenticalQueryTextIsolatedByFingerprint) {
  // Two datasets over the SAME table and vocabulary but different
  // configurations: identical query text must produce distinct cache keys
  // (config fingerprints differ) and distinct answers.
  Configuration long_speeches;
  long_speeches.table = "running_example";
  long_speeches.dimensions = {"region", "season"};
  long_speeches.targets = {"delay"};
  long_speeches.max_facts = 3;
  long_speeches.prior = PriorKind::kZero;
  Configuration short_speeches = long_speeches;
  short_speeches.max_facts = 1;

  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("re_long", long_speeches, 16, kSeed).ok());
  ASSERT_TRUE(
      registry.AddGenerated("re_short", short_speeches, 16, kSeed).ok());

  RoutingService router(&registry);
  EngineHost* host_long = router.host("re_long");
  EngineHost* host_short = router.host("re_short");
  ASSERT_NE(host_long, nullptr);
  ASSERT_NE(host_short, nullptr);
  EXPECT_NE(host_long->fingerprint(), host_short->fingerprint());

  // The whole-table query: greedy's second pick has positive gain on the
  // running example (Example 7), so a 3-fact speech provably differs from a
  // 1-fact one.
  const std::string request = "delay";
  ServeResponse from_long = host_long->Handle(request);
  ServeResponse from_short = host_short->Handle(request);
  EXPECT_TRUE(from_long.answered);
  EXPECT_TRUE(from_short.answered);
  // max_facts=3 vs max_facts=1 produce different speeches for the same text.
  EXPECT_NE(from_long.text, from_short.text);
  // Both answers landed in the SHARED cache under distinct keys.
  EXPECT_EQ(router.cache().size(), 2u);

  // Vocabulary coverage ties (same table); routing stays deterministic on
  // the first-registered dataset.
  RoutingService::RouteDecision decision = router.Route(request);
  EXPECT_EQ(decision.host_index, 0);
  RoutedResponse via_router = router.AnswerNow(request);
  EXPECT_EQ(via_router.dataset, "re_long");
  EXPECT_EQ(via_router.response.text, from_long.text);
  EXPECT_TRUE(via_router.response.cache_hit);
}

TEST(RoutingIsolationTest, IdenticalConfigurationsStillIsolatedByHostName) {
  // Same Configuration registered twice: the config fingerprints collide,
  // so only the host-name prefix keeps the shared cache partitioned.
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.prior = PriorKind::kZero;

  DatasetRegistry registry;
  ASSERT_TRUE(registry.AddGenerated("first", config, 16, kSeed).ok());
  ASSERT_TRUE(registry.AddGenerated("second", config, 16, kSeed).ok());

  RoutingService router(&registry);
  EngineHost* first = router.host("first");
  EngineHost* second = router.host("second");
  EXPECT_NE(first->fingerprint(), second->fingerprint());

  ServeResponse a = first->Handle("delay in Winter");
  ServeResponse b = second->Handle("delay in Winter");
  EXPECT_TRUE(a.answered);
  EXPECT_TRUE(b.answered);
  EXPECT_FALSE(b.cache_hit) << "second host must not see first host's entry";
  EXPECT_EQ(router.cache().size(), 2u);
}

TEST(RoutingOnDemandTest, ConcurrentDistinctMissesMatchSequentialAnswers) {
  // Month queries are outside the season-only configuration, so every
  // distinct request, on either target, needs its own on-demand solve.
  // Concurrency must not change any answer.
  Configuration config;
  config.table = "flights";
  config.dimensions = {"season"};
  config.targets = {"cancelled", "delay_minutes"};
  config.max_query_predicates = 1;

  DatasetRegistry registry;
  ASSERT_TRUE(registry.AddGenerated("flights", config, 600, kSeed).ok());

  std::vector<std::string> requests;
  for (const char* month : {"February", "June", "September", "December"}) {
    requests.push_back(std::string("cancelled in ") + month);
    requests.push_back(std::string("delay minutes in ") + month);
  }

  std::vector<std::string> expected;
  {
    RoutingService sequential(&registry);
    for (const auto& request : requests) {
      RoutedResponse routed = sequential.AnswerNow(request);
      EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand) << request;
      expected.push_back(routed.response.text);
    }
  }

  RouterOptions options;
  options.num_threads = 4;
  RoutingService router(&registry, options);
  std::vector<std::future<RoutedResponse>> futures;
  for (const auto& request : requests) futures.push_back(router.Submit(request));
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse routed = futures[i].get();
    EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand) << requests[i];
    EXPECT_EQ(routed.response.text, expected[i]) << requests[i];
  }
  // One filter and one solve per distinct miss.
  HostStats stats = router.host("flights")->stats();
  EXPECT_EQ(stats.on_demand_summaries, requests.size());
  EXPECT_EQ(stats.on_demand_passes, requests.size());
}

}  // namespace
}  // namespace serve
}  // namespace vq
