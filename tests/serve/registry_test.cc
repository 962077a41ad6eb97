#include "serve/registry.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "serve/router.h"

namespace vq {
namespace serve {
namespace {

constexpr uint64_t kSeed = 20210318;

Configuration SeasonOnlyFlightsConfig() {
  Configuration config;
  config.table = "flights";
  config.dimensions = {"season"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 1;
  return config;
}

std::string FreshTempDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::path(::testing::TempDir()) / ("vq_registry_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(DatasetRegistryTest, RegistersAndLooksUpByName) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", SeasonOnlyFlightsConfig(), 300, kSeed)
          .ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"flights"});
  EXPECT_NE(registry.engine("flights"), nullptr);
  EXPECT_NE(registry.table("flights"), nullptr);
  EXPECT_GT(registry.engine("flights")->store().size(), 0u);
  EXPECT_EQ(registry.engine("nope"), nullptr);
  EXPECT_EQ(registry.table("nope"), nullptr);
}

TEST(DatasetRegistryTest, RejectsDuplicateNamesAndUnknownGenerators) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", SeasonOnlyFlightsConfig(), 300, kSeed)
          .ok());
  Status duplicate =
      registry.AddGenerated("flights", SeasonOnlyFlightsConfig(), 300, kSeed);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);

  Configuration unknown = SeasonOnlyFlightsConfig();
  unknown.table = "no_such_generator";
  EXPECT_FALSE(registry.AddGenerated("other", unknown, 300, kSeed).ok());
}

TEST(DatasetRegistryTest, SaveLearnedRequiresLearnedDir) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", SeasonOnlyFlightsConfig(), 300, kSeed)
          .ok());
  Status st = registry.SaveLearned("flights", {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetRegistryTest, PersistsAndReloadsOnDemandSummaries) {
  const std::string learned_dir = FreshTempDir("persist");
  // "cancelled in February": month is outside the season-only configuration,
  // so the first service run answers it on demand.
  const std::string request = "cancelled in February";

  std::string learned_text;
  {
    DatasetRegistry registry{RegistryOptions{learned_dir}};
    ASSERT_TRUE(registry
                    .AddGenerated("flights", SeasonOnlyFlightsConfig(), 300,
                                  kSeed)
                    .ok());
    EXPECT_EQ(registry.learned_loaded("flights"), 0u);

    RoutingService router(&registry);
    RoutedResponse routed = router.AnswerNow(request);
    ASSERT_TRUE(routed.response.answered);
    EXPECT_EQ(routed.response.source, AnswerSource::kOnDemand);
    learned_text = routed.response.text;

    EXPECT_EQ(router.host("flights")->pending_learned(), 1u);
    ASSERT_TRUE(router.FlushLearned().ok());
    EXPECT_EQ(router.host("flights")->pending_learned(), 0u);
    EXPECT_TRUE(std::filesystem::exists(registry.LearnedPath("flights")));
    // A second flush with nothing new is a no-op, not an error.
    EXPECT_TRUE(router.FlushLearned().ok());
  }

  // A "restarted" service: same spec, same learned_dir. The learned speech
  // loads into the store, so the same request is now a store-exact hit with
  // the identical text.
  {
    DatasetRegistry registry{RegistryOptions{learned_dir}};
    ASSERT_TRUE(registry
                    .AddGenerated("flights", SeasonOnlyFlightsConfig(), 300,
                                  kSeed)
                    .ok());
    EXPECT_EQ(registry.learned_loaded("flights"), 1u);

    RoutingService router(&registry);
    RoutedResponse routed = router.AnswerNow(request);
    ASSERT_TRUE(routed.response.answered);
    EXPECT_EQ(routed.response.source, AnswerSource::kStoreExact);
    EXPECT_EQ(routed.response.text, learned_text);
  }

  std::filesystem::remove_all(learned_dir);
}

TEST(DatasetRegistryTest, StaleLearnedSpeechesDiscardedOnConfigChange) {
  const std::string learned_dir = FreshTempDir("stale");
  // Learn and persist under the season-only configuration...
  {
    DatasetRegistry registry{RegistryOptions{learned_dir}};
    ASSERT_TRUE(registry
                    .AddGenerated("flights", SeasonOnlyFlightsConfig(), 300,
                                  kSeed)
                    .ok());
    RoutingService router(&registry);
    ASSERT_EQ(router.AnswerNow("cancelled in February").response.source,
              AnswerSource::kOnDemand);
    ASSERT_TRUE(router.FlushLearned().ok());
  }
  // ...then restart with a DIFFERENT configuration (shorter speeches). The
  // old learned speech could never be produced under this config and must
  // not be reloaded.
  Configuration changed = SeasonOnlyFlightsConfig();
  changed.max_facts = 1;
  {
    DatasetRegistry registry{RegistryOptions{learned_dir}};
    ASSERT_TRUE(
        registry.AddGenerated("flights", changed, 300, kSeed).ok());
    EXPECT_EQ(registry.learned_loaded("flights"), 0u);
    RoutingService router(&registry);
    EXPECT_EQ(router.AnswerNow("cancelled in February").response.source,
              AnswerSource::kOnDemand);
  }
  std::filesystem::remove_all(learned_dir);
}

TEST(DatasetRegistryTest, LearnedFilesAccumulateAcrossFlushes) {
  const std::string learned_dir = FreshTempDir("accumulate");
  DatasetRegistry registry{RegistryOptions{learned_dir}};
  ASSERT_TRUE(registry
                  .AddGenerated("flights", SeasonOnlyFlightsConfig(), 300,
                                kSeed)
                  .ok());
  RoutingService router(&registry);

  ASSERT_EQ(router.AnswerNow("cancelled in February").response.source,
            AnswerSource::kOnDemand);
  ASSERT_TRUE(router.FlushLearned().ok());
  ASSERT_EQ(router.AnswerNow("cancelled in the Morning").response.source,
            AnswerSource::kOnDemand);
  ASSERT_TRUE(router.FlushLearned().ok());

  // Both speeches must survive the two-step flush (merge, not overwrite).
  DatasetRegistry reloaded{RegistryOptions{learned_dir}};
  ASSERT_TRUE(reloaded
                  .AddGenerated("flights", SeasonOnlyFlightsConfig(), 300,
                                kSeed)
                  .ok());
  EXPECT_EQ(reloaded.learned_loaded("flights"), 2u);

  std::filesystem::remove_all(learned_dir);
}

}  // namespace
}  // namespace serve
}  // namespace vq
