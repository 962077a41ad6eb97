#include "serve/cache.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace vq {
namespace serve {
namespace {

ServedAnswerPtr MakeAnswer(const std::string& text) {
  auto answer = std::make_shared<ServedAnswer>();
  answer->text = text;
  answer->answered = true;
  answer->source = AnswerSource::kStoreExact;
  return answer;
}

ServedAnswerPtr MakeApology(const std::string& text) {
  auto answer = std::make_shared<ServedAnswer>();
  answer->text = text;
  answer->answered = false;
  answer->source = AnswerSource::kUnanswerable;
  return answer;
}

TEST(ShardedSummaryCacheTest, MissThenHit) {
  ShardedSummaryCache cache(/*capacity=*/8, /*num_shards=*/2);
  EXPECT_EQ(cache.Get("k"), nullptr);
  cache.Put("k", MakeAnswer("speech"));
  ASSERT_NE(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.Get("k")->text, "speech");
  CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.HitRate(), 0.5);
}

TEST(ShardedSummaryCacheTest, PutReplacesExistingKey) {
  ShardedSummaryCache cache(4, 1);
  cache.Put("k", MakeAnswer("old"));
  cache.Put("k", MakeAnswer("new"));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get("k")->text, "new");
}

TEST(ShardedSummaryCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard, capacity 2: deterministic LRU order.
  ShardedSummaryCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", MakeAnswer("a"));
  cache.Put("b", MakeAnswer("b"));
  ASSERT_NE(cache.Get("a"), nullptr);  // refresh "a": now "b" is LRU
  cache.Put("c", MakeAnswer("c"));     // evicts "b"
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_EQ(cache.TotalStats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedSummaryCacheTest, CapacityIsRespectedPerShard) {
  ShardedSummaryCache cache(/*capacity=*/16, /*num_shards=*/4);
  for (int i = 0; i < 1000; ++i) {
    cache.Put("key" + std::to_string(i), MakeAnswer("v"));
  }
  EXPECT_LE(cache.size(), cache.capacity());
  for (size_t shard_size : cache.ShardSizes()) {
    EXPECT_LE(shard_size, 4u);  // 16 entries / 4 shards
  }
  EXPECT_GT(cache.TotalStats().evictions, 0u);
}

TEST(ShardedSummaryCacheTest, KeysSpreadAcrossShards) {
  ShardedSummaryCache cache(/*capacity=*/4096, /*num_shards=*/16);
  EXPECT_EQ(cache.num_shards(), 16u);
  std::set<size_t> used;
  for (int i = 0; i < 500; ++i) {
    std::string key = "t=0|dim:" + std::to_string(i);
    size_t shard = cache.ShardIndex(key);
    EXPECT_LT(shard, cache.num_shards());
    used.insert(shard);
    cache.Put(key, MakeAnswer("v"));
  }
  // 500 hashed keys over 16 shards: every shard should receive some keys.
  EXPECT_EQ(used.size(), 16u);
  // ShardIndex is what Put/Get route on: sizes must match the observed map.
  std::vector<size_t> sizes = cache.ShardSizes();
  size_t total = 0;
  for (size_t s : sizes) total += s;
  EXPECT_EQ(total, 500u);
}

TEST(ShardedSummaryCacheTest, ShardCapacitiesSumExactlyToTotal) {
  // 10 entries over 8 shards: two shards hold 2, six hold 1 -- never the
  // ceiling-rounded 16. Saturating the cache fills it to exactly 10.
  ShardedSummaryCache cache(/*capacity=*/10, /*num_shards=*/8);
  for (int i = 0; i < 1000; ++i) {
    cache.Put("key" + std::to_string(i), MakeAnswer("v"));
  }
  EXPECT_EQ(cache.size(), 10u);
}

TEST(ShardedSummaryCacheTest, ShardCountRoundsToPowerOfTwoAndFitsCapacity) {
  ShardedSummaryCache cache(/*capacity=*/4, /*num_shards=*/100);
  // 100 rounds up to 128, then halves until <= capacity.
  EXPECT_EQ(cache.num_shards(), 4u);
  ShardedSummaryCache tiny(/*capacity=*/1, /*num_shards=*/8);
  EXPECT_EQ(tiny.num_shards(), 1u);
}

TEST(ShardedSummaryCacheTest, ClearEmptiesEveryShard) {
  ShardedSummaryCache cache(64, 4);
  for (int i = 0; i < 32; ++i) cache.Put(std::to_string(i), MakeAnswer("v"));
  EXPECT_GT(cache.size(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains("0"));
}

TEST(ShardedSummaryCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  ShardedSummaryCache cache(/*capacity=*/128, /*num_shards=*/8);
  const int kThreads = 8;
  const int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "key" + std::to_string((t * 31 + i) % 300);
        if (i % 3 == 0) {
          cache.Put(key, MakeAnswer(key));
        } else {
          ServedAnswerPtr hit = cache.Get(key);
          if (hit != nullptr) {
            EXPECT_EQ(hit->text, key);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), cache.capacity());
  CacheStats stats = cache.TotalStats();
  uint64_t gets_per_thread = 0;
  for (int i = 0; i < kOpsPerThread; ++i) {
    if (i % 3 != 0) ++gets_per_thread;
  }
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * gets_per_thread);
}

TEST(ShardedSummaryCacheTest, TtlExpiresEntriesOnTheInjectedClock) {
  double now = 100.0;
  ShardedSummaryCache cache(/*capacity=*/8, /*num_shards=*/1,
                            [&now] { return now; });
  cache.Put("negative", MakeAnswer("no summary"), /*ttl_seconds=*/5.0);
  cache.Put("positive", MakeAnswer("speech"));  // no TTL: never expires

  ASSERT_NE(cache.Get("negative"), nullptr);
  EXPECT_TRUE(cache.Contains("negative"));

  now += 4.9;  // still inside the TTL
  ASSERT_NE(cache.Get("negative"), nullptr);

  now += 0.2;  // past Put-time + 5s
  EXPECT_FALSE(cache.Contains("negative"));
  EXPECT_EQ(cache.Get("negative"), nullptr);
  // The expired entry is gone for good, and the drop was counted as both an
  // expiration and a miss.
  CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(cache.size(), 1u);

  now += 1e6;  // TTL-less entries survive any amount of time
  ASSERT_NE(cache.Get("positive"), nullptr);
}

TEST(ShardedSummaryCacheTest, PurgePrefixDropsExactlyThatPrefix) {
  ShardedSummaryCache cache(/*capacity=*/64, /*num_shards=*/4);
  for (int i = 0; i < 8; ++i) {
    cache.Put("left|k" + std::to_string(i), MakeAnswer("l"));
    cache.Put("right|k" + std::to_string(i), MakeAnswer("r"));
  }
  EXPECT_EQ(cache.CountPrefix("left|"), 8u);
  EXPECT_EQ(cache.PurgePrefix("left|"), 8u);
  EXPECT_EQ(cache.CountPrefix("left|"), 0u);
  EXPECT_EQ(cache.CountPrefix("right|"), 8u);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.PurgePrefix("left|"), 0u);  // idempotent
}

TEST(ShardedSummaryCacheTest, GetStaleServesExpiredAnswersButNeverApologies) {
  double now = 0.0;
  ShardedSummaryCache cache(/*capacity=*/8, /*num_shards=*/1,
                            [&now] { return now; });
  cache.Put("answer", MakeAnswer("speech"), /*ttl_seconds=*/5.0);
  cache.Put("expired_apology", MakeApology("no summary"), /*ttl_seconds=*/5.0);
  cache.Put("fresh_apology", MakeApology("no summary"), /*ttl_seconds=*/60.0);

  bool was_stale = true;
  ASSERT_NE(cache.GetStale("answer", &was_stale), nullptr);
  EXPECT_FALSE(was_stale);

  now = 6.0;  // past the 5 s TTLs
  // An expired answer is served anyway, marked stale, and left in place.
  ServedAnswerPtr stale = cache.GetStale("answer", &was_stale);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->text, "speech");
  EXPECT_TRUE(was_stale);
  // The overload path refuses cached apologies, so GetStale reports them as
  // misses, expired or fresh, never as hits or stale serves.
  was_stale = true;
  EXPECT_EQ(cache.GetStale("expired_apology", &was_stale), nullptr);
  EXPECT_FALSE(was_stale);
  was_stale = true;
  EXPECT_EQ(cache.GetStale("fresh_apology", &was_stale), nullptr);
  EXPECT_FALSE(was_stale);

  CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.stale_serves, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.expirations, 0u);
  EXPECT_EQ(cache.size(), 3u);
  // The regular lookup still serves the fresh apology (negative caching).
  ServedAnswerPtr apology = cache.Get("fresh_apology");
  ASSERT_NE(apology, nullptr);
  EXPECT_FALSE(apology->answered);
}

TEST(ShardedSummaryCacheTest, PutRefreshesTtl) {
  double now = 0.0;
  ShardedSummaryCache cache(4, 1, [&now] { return now; });
  cache.Put("k", MakeAnswer("first"), 5.0);
  now = 4.0;
  cache.Put("k", MakeAnswer("second"), 5.0);  // new deadline: t=9
  now = 8.0;
  ASSERT_NE(cache.Get("k"), nullptr);
  EXPECT_EQ(cache.Get("k")->text, "second");
  now = 9.0;
  EXPECT_EQ(cache.Get("k"), nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace vq
