#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/preprocessor.h"
#include "engine/voice_engine.h"
#include "storage/datasets.h"
#include "util/thread_pool.h"

namespace vq {
namespace {

Configuration RunningExampleConfig() {
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"region", "season"};
  config.targets = {"delay"};
  config.max_query_predicates = 2;
  config.max_fact_dims = 2;
  config.max_facts = 3;
  config.prior = PriorKind::kZero;
  return config;
}

TEST(PreprocessorTest, GeneratesSpeechForEveryQuery) {
  Table table = MakeRunningExampleTable();
  PreprocessStats stats;
  PreprocessOptions options;
  auto store = Preprocess(table, RunningExampleConfig(), options, &stats);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  // 25 queries (1 + 4 + 4 + 16) and all subsets non-empty.
  EXPECT_EQ(stats.num_queries, 25u);
  EXPECT_EQ(stats.num_speeches, 25u);
  EXPECT_EQ(store.value().size(), 25u);
  EXPECT_GT(stats.total_seconds, 0.0);
  // Sequential stage timings are disjoint slices of the call.
  for (double stage : {stats.aggregate_seconds, stats.slice_seconds,
                       stats.prepare_seconds, stats.solve_seconds}) {
    EXPECT_GE(stage, 0.0);
  }
  EXPECT_LE(stats.aggregate_seconds + stats.slice_seconds + stats.prepare_seconds +
                stats.solve_seconds,
            stats.total_seconds);
  EXPECT_GT(stats.MeanScaledUtility(), 0.0);
  EXPECT_LE(stats.MeanScaledUtility(), 1.0);
}

TEST(PreprocessorTest, ParallelMatchesSequential) {
  Table table = MakeRunningExampleTable();
  PreprocessOptions sequential;
  auto store_seq = Preprocess(table, RunningExampleConfig(), sequential);
  ASSERT_TRUE(store_seq.ok());
  ThreadPool pool(4);
  PreprocessOptions parallel;
  parallel.pool = &pool;
  auto store_par = Preprocess(table, RunningExampleConfig(), parallel);
  ASSERT_TRUE(store_par.ok());
  ASSERT_EQ(store_seq.value().size(), store_par.value().size());
  // Same query set must produce identical speech text.
  for (const auto& stored : store_seq.value().speeches()) {
    const StoredSpeech* other = store_par.value().FindExact(stored.query);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->speech.text, stored.speech.text);
  }
}

TEST(PreprocessorTest, ExactAlgorithmAtLeastMatchesGreedyUtility) {
  Table table = MakeRunningExampleTable();
  PreprocessOptions greedy_options;
  greedy_options.algorithm = Algorithm::kGreedy;
  PreprocessStats greedy_stats;
  ASSERT_TRUE(
      Preprocess(table, RunningExampleConfig(), greedy_options, &greedy_stats).ok());
  PreprocessOptions exact_options;
  exact_options.algorithm = Algorithm::kExact;
  PreprocessStats exact_stats;
  ASSERT_TRUE(
      Preprocess(table, RunningExampleConfig(), exact_options, &exact_stats).ok());
  EXPECT_GE(exact_stats.sum_scaled_utility + 1e-9, greedy_stats.sum_scaled_utility);
}

class VoiceEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(MakeRunningExampleTable());
    auto engine =
        VoiceQueryEngine::Build(table_.get(), RunningExampleConfig(), {}, &stats_);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::make_unique<VoiceQueryEngine>(std::move(engine).value());
    ASSERT_TRUE(engine_->mutable_extractor()->AddTargetSynonym("delays", "delay").ok());
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<VoiceQueryEngine> engine_;
  PreprocessStats stats_;
};

TEST_F(VoiceEngineTest, AnswersExactQuery) {
  auto response = engine_->Answer("delays in Winter");
  EXPECT_EQ(response.type, RequestType::kSupportedQuery);
  EXPECT_TRUE(response.exact_match);
  ASSERT_NE(response.speech, nullptr);
  EXPECT_EQ(response.speech->speech.subset_description, "season=Winter");
  EXPECT_GE(response.lookup_seconds, 0.0);
  // Run-time answering must be far below pre-processing cost (the paper's
  // headline: lookups are orders of magnitude cheaper).
  EXPECT_LT(response.lookup_seconds, stats_.total_seconds);
}

TEST_F(VoiceEngineTest, HelpAndRepeat) {
  auto help = engine_->Answer("help");
  EXPECT_EQ(help.type, RequestType::kHelp);
  EXPECT_FALSE(help.text.empty());
  // Repeat before any speech.
  auto repeat0 = engine_->Answer("repeat that");
  EXPECT_EQ(repeat0.type, RequestType::kRepeat);
  EXPECT_NE(repeat0.text.find("nothing to repeat"), std::string::npos);
  // After a query, repeat echoes the last speech.
  auto answer = engine_->Answer("delays in Winter");
  auto repeat1 = engine_->Answer("say that again");
  EXPECT_EQ(repeat1.text, answer.text);
}

TEST_F(VoiceEngineTest, FallsBackToMostSpecificSpeech) {
  // Query with an unmatched extra token is classified unsupported, but a
  // supported 2-predicate query whose combination was pre-processed matches
  // exactly; test fallback with a target-only query instead.
  auto response = engine_->Answer("delays");
  EXPECT_EQ(response.type, RequestType::kSupportedQuery);
  ASSERT_NE(response.speech, nullptr);
  EXPECT_TRUE(response.speech->query.predicates.empty());
}

TEST_F(VoiceEngineTest, UnsupportedQueryStillAnswersFromStore) {
  // Extremum queries are unsupported, yet the engine responds gracefully.
  auto response = engine_->Answer("which season has the highest delays");
  EXPECT_EQ(response.type, RequestType::kUnsupportedQuery);
  EXPECT_FALSE(response.text.empty());
}

TEST_F(VoiceEngineTest, ConstAnswerWithExplicitSessions) {
  // Answer(request, session) is const and keeps repeat state per session.
  const VoiceQueryEngine& engine = *engine_;
  VoiceQueryEngine::Session alice;
  VoiceQueryEngine::Session bob;
  auto answer = engine.Answer("delays in Winter", &alice);
  EXPECT_EQ(answer.type, RequestType::kSupportedQuery);
  // Alice can repeat her speech; Bob has heard nothing yet.
  EXPECT_EQ(engine.Answer("repeat that", &alice).text, answer.text);
  EXPECT_NE(engine.Answer("repeat that", &bob).text, answer.text);
  // A null session answers queries but keeps no repeat memory.
  auto stateless = engine.Answer("delays in Winter", nullptr);
  EXPECT_EQ(stateless.text, answer.text);
  EXPECT_NE(engine.Answer("repeat that", nullptr).text, answer.text);
}

TEST_F(VoiceEngineTest, ConcurrentConstAnswersAgree) {
  const VoiceQueryEngine& engine = *engine_;
  VoiceQueryEngine::Session warm;
  const std::string expected = engine.Answer("delays in Winter", &warm).text;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, &expected, &mismatches] {
      VoiceQueryEngine::Session session;
      for (int i = 0; i < 50; ++i) {
        if (engine.Answer("delays in Winter", &session).text != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(VoiceEngineTest, OtherRequests) {
  auto response = engine_->Answer("sing me a song please");
  EXPECT_EQ(response.type, RequestType::kOther);
  EXPECT_NE(response.text.find("did not understand"), std::string::npos);
}

TEST_F(VoiceEngineTest, StatefulOverloadIsSafeForConcurrentCallers) {
  // The convenience overload shares one internal session; its callers are
  // serialized on an internal mutex, so hammering it from several threads
  // must neither crash nor produce torn speeches (run under the tsan preset
  // to make this a real data-race check).
  VoiceQueryEngine& engine = *engine_;
  VoiceQueryEngine::Session warm;
  const std::string expected = engine.Answer("delays in Winter", &warm).text;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, &expected, &failures] {
      for (int i = 0; i < 50; ++i) {
        std::string text = engine.Answer("delays in Winter").text;
        if (text != expected) failures.fetch_add(1);
        // "repeat that" may observe any caller's last speech, but it must be
        // a whole speech -- with a single query in flight, exactly this one.
        std::string repeated = engine.Answer("repeat that").text;
        if (repeated != expected) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace vq
