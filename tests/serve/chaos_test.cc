// Chaos suite: the router hammered while every fault point misbehaves.
//
// The invariants under fault storm are few and absolute: no crash or hang,
// no misroute (an overloaded request still lands on the dataset its
// vocabulary selects), and the status ledger reconciles -- every submitted
// request resolves to exactly ONE of ok / shed / timeout / degraded, and
// the router's counters agree with the responses handed back.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/router.h"
#include "storage/datasets.h"
#include "util/fault.h"

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

/// Season-only: region queries always take the on-demand solve path, which
/// is where the solve.batch faults land.
Configuration RunningExampleConfig() {
  Configuration config;
  config.table = "running_example";
  config.dimensions = {"season"};
  config.targets = {"delay"};
  config.prior = PriorKind::kZero;
  return config;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Global().Reset(); }
  void TearDown() override { fault::FaultInjector::Global().Reset(); }
};

TEST_F(ChaosTest, RouterSurvivesFaultStormWithReconciledLedger) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 600, kSeed).ok());
  ASSERT_TRUE(
      registry.AddGenerated("re", RunningExampleConfig(), 64, kSeed).ok());

  fault::FaultInjector& faults = fault::FaultInjector::Global();
  faults.Seed(kSeed);
  // Every serving-path fault point misbehaves at once: submissions bounce at
  // the door, on-demand solves blow up or stall long enough to blow budgets.
  faults.Arm(fault::kPoolSubmit, {.fail_probability = 0.05});
  faults.Arm(fault::kSolveBatch,
             {.fail_probability = 0.5, .delay_seconds = 0.002});

  RouterOptions options;
  options.num_threads = 4;
  options.default_deadline_seconds = 0.25;
  options.max_pending_requests = 64;
  options.host.max_concurrent_solves = 2;
  RoutingService router(&registry, options);

  // (request, expected dataset when routed; "" = must stay unrouted). The
  // on-demand region queries are cycled so cache hits do not absorb every
  // solve after round one.
  const std::vector<std::pair<std::string, std::string>> workload = {
      {"cancelled in February", "flights"},
      {"cancelled in Winter", "flights"},
      {"delay in the North", "re"},
      {"delay in the South", "re"},
      {"delay in the East", "re"},
      {"quarterly revenue trends please", ""},
  };
  const int kRounds = 30;

  std::vector<std::future<RoutedResponse>> futures;
  futures.reserve(workload.size() * kRounds);
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [request, dataset] : workload) {
      futures.push_back(router.Submit(request));
    }
  }

  uint64_t ok = 0, shed = 0, timeout = 0, degraded = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    RoutedResponse routed = futures[i].get();
    const auto& [request, dataset] = workload[i % workload.size()];
    switch (routed.response.status) {
      case ServeStatus::kOk:
        ++ok;
        break;
      case ServeStatus::kShed:
        ++shed;
        break;
      case ServeStatus::kTimeout:
        ++timeout;
        break;
      case ServeStatus::kDegraded:
        ++degraded;
        break;
    }
    if (routed.routed) {
      // THE chaos invariant: overload may degrade the answer, never the
      // routing decision.
      EXPECT_EQ(routed.dataset, dataset) << request;
      EXPECT_FALSE(dataset.empty())
          << "unroutable request must not route: " << request;
    }
  }
  router.Drain();

  const uint64_t submitted = futures.size();
  EXPECT_EQ(ok + shed + timeout + degraded, submitted)
      << "every request resolves to exactly one status";
  EXPECT_GE(ok, 1u) << "a fault storm at these rates must not starve everyone";

  RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, submitted);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.timeouts, timeout);
  EXPECT_EQ(stats.degraded, degraded);
  EXPECT_EQ(router.PendingRequests(), 0u);

  // The storm actually hit the armed points (hits, not necessarily
  // failures -- probabilities are per-hit).
  EXPECT_GT(faults.PointStats(fault::kPoolSubmit).hits, 0u);
  EXPECT_GT(faults.PointStats(fault::kSolveBatch).hits, 0u);

  // Rendering metrics mid-chaos must not crash or deadlock.
  router.metrics()->RenderText();
}

TEST_F(ChaosTest, SolveBatchFaultDegradesToFallbackNotFailure) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("re", RunningExampleConfig(), 64, kSeed).ok());
  fault::FaultInjector::Global().Arm(fault::kSolveBatch,
                                     {.fail_probability = 1.0});
  RoutingService router(&registry);

  // Every on-demand solve throws, so the on-demand answer is impossible -- but
  // the caller still gets the most specific stored speech, not an exception
  // or a hang.
  RoutedResponse routed = router.AnswerNow("delay in the North");
  EXPECT_TRUE(routed.routed);
  EXPECT_TRUE(routed.response.answered);
  EXPECT_EQ(routed.response.source, AnswerSource::kStoreFallback);

  fault::FaultInjector::Global().Reset();
  // Healthy again: the real on-demand summary comes back (the fallback was
  // never cached as the answer to this query... it WAS cached as an answered
  // fallback; a fresh query avoids the cache).
  RoutedResponse healthy = router.AnswerNow("delay in the South");
  EXPECT_TRUE(healthy.response.answered);
  EXPECT_EQ(healthy.response.source, AnswerSource::kOnDemand);
}

TEST_F(ChaosTest, SnapshotLoadFaultFallsBackToColdBuild) {
  std::string path = TempPath("chaos_flights.vqsnap");
  std::vector<std::string> expected;
  {
    DatasetRegistry writer;
    ASSERT_TRUE(
        writer.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
    ASSERT_TRUE(writer.WriteSnapshot("flights", path).ok());
    RoutingService router(&writer);
    expected.push_back(router.AnswerNow("cancelled in February").response.text);
  }

  fault::FaultInjector::Global().Arm(fault::kSnapshotLoad,
                                     {.fail_probability = 1.0});
  obs::MetricsRegistry metrics;
  DatasetRegistry registry(RegistryOptions{.metrics = &metrics});
  std::atomic<int> fallback_builds{0};
  auto fallback = [&]() -> Result<Table> {
    ++fallback_builds;
    return MakeDataset("flights", 300, kSeed);
  };
  ASSERT_TRUE(
      registry.AddFromSnapshot("flights", path, FlightsConfig(), fallback).ok());
  EXPECT_EQ(fallback_builds.load(), 1);
  EXPECT_EQ(metrics.GetCounter("vq_registry_snapshot_fallbacks_total")->Value(),
            1u);

  // The cold-built dataset answers exactly like the snapshot would have.
  RoutingService router(&registry);
  EXPECT_EQ(router.AnswerNow("cancelled in February").response.text,
            expected[0]);

  // Disarmed, the same file loads fine (the fault was injected, not real).
  fault::FaultInjector::Global().Reset();
  DatasetRegistry clean;
  ASSERT_TRUE(clean.AddFromSnapshot("flights", path, FlightsConfig()).ok());
  EXPECT_TRUE(clean.table("flights")->snapshot_backed());
  std::filesystem::remove(path);
}

TEST_F(ChaosTest, AtomicWriteFaultSurfacesAsErrorNotCorruption) {
  DatasetRegistry registry;
  ASSERT_TRUE(
      registry.AddGenerated("flights", FlightsConfig(), 300, kSeed).ok());
  std::string path = TempPath("chaos_write.vqsnap");

  fault::FaultInjector::Global().Arm(fault::kAtomicWrite,
                                     {.fail_probability = 1.0});
  Status failed = registry.WriteSnapshot("flights", path);
  EXPECT_FALSE(failed.ok()) << "an injected write fault must surface";
  EXPECT_FALSE(std::filesystem::exists(path))
      << "atomic replace must not leave a partial file behind";

  fault::FaultInjector::Global().Reset();
  ASSERT_TRUE(registry.WriteSnapshot("flights", path).ok());
  DatasetRegistry reader;
  ASSERT_TRUE(reader.AddFromSnapshot("flights", path, FlightsConfig()).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace serve
}  // namespace vq
