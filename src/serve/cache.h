// Sharded LRU cache of rendered answers, keyed by canonical query.
//
// The speech store already holds every pre-computed speech, but serving adds
// work per request (NLU, subset-fallback search, on-demand optimization for
// non-materialized queries). The cache memoizes the *final rendered answer*
// per canonical query so repeated traffic -- voice workloads are heavily
// skewed toward a few popular questions -- bypasses all of it. Sharding
// keeps lock hold times per request independent of the worker count.
#ifndef VQ_SERVE_CACHE_H_
#define VQ_SERVE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/answer.h"
#include "util/sync.h"

namespace vq {
namespace serve {

/// Aggregated cache counters (monotonic).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Entries dropped because their TTL had elapsed at lookup time (each such
  /// lookup also counts as a miss).
  uint64_t expirations = 0;
  /// TTL-expired answers deliberately served anyway via GetStale (overload
  /// control prefers a stale answer over shedding the request). Not counted
  /// as hits, misses or expirations.
  uint64_t stale_serves = 0;

  double HitRate() const {
    uint64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                       : 0.0;
  }
};

/// \brief Thread-safe LRU cache split into independently locked shards.
///
/// Keys are hashed onto shards; each shard maintains its own recency list,
/// map and counters under one mutex, so concurrent requests for different
/// keys rarely contend. Values are shared_ptrs to immutable answers: a Get
/// may outlive the entry's eviction without copying.
///
/// The entry count is the cache's one memory bound: a rendered answer is a
/// few spoken sentences, so `capacity` bounds the footprint without
/// per-entry byte accounting. Freshness is per entry (a TTL), and GetStale
/// lets overload control serve an expired answer instead of shedding.
class ShardedSummaryCache {
 public:
  /// Monotonic clock in seconds; injectable so tests can control expiry.
  using Clock = std::function<double()>;

  /// `capacity` is the total entry budget; shard capacities sum to exactly
  /// this value (each shard holds at least one entry). Shard count is
  /// rounded up to a power of two for mask-based routing, then halved while
  /// it exceeds the capacity. A default-constructed `clock` reads the steady
  /// clock.
  explicit ShardedSummaryCache(size_t capacity, size_t num_shards = 16,
                               Clock clock = {});

  ShardedSummaryCache(const ShardedSummaryCache&) = delete;
  ShardedSummaryCache& operator=(const ShardedSummaryCache&) = delete;

  /// Returns the cached answer and refreshes its recency, or nullptr. An
  /// entry whose TTL has elapsed is dropped and reported as a miss (plus an
  /// expiration), so negative results age out and can be recomputed.
  ServedAnswerPtr Get(const std::string& key);

  /// Overload-control lookup: like Get, but a TTL-expired answer is RETURNED
  /// (with `*was_stale` set and `stale_serves` counted) instead of dropped,
  /// so the serving layer can answer with yesterday's speech rather than
  /// shed the request. The expired entry stays in place -- recency is still
  /// refreshed -- and the next regular Get expires it as usual once pressure
  /// subsides. A fresh answer behaves exactly like Get (counts as a hit).
  /// A cached apology (`answered == false`) is never served under pressure,
  /// so it counts as a miss and returns nullptr, fresh or expired.
  ServedAnswerPtr GetStale(const std::string& key, bool* was_stale);

  /// Inserts (or replaces) the answer for `key`, evicting the shard's least
  /// recently used entry if the shard is full. `ttl_seconds` <= 0 means the
  /// entry never expires (LRU eviction only); a positive TTL bounds how long
  /// the entry may be served -- the serving layer uses this for unanswerable
  /// (negative) results, so a store or registry that later learns an answer
  /// is not shadowed by a stale apology forever. `answer` must not be null.
  void Put(const std::string& key, ServedAnswerPtr answer, double ttl_seconds = 0.0);

  /// True if present and not expired, without touching recency or counters.
  bool Contains(const std::string& key) const;

  /// Drops every entry whose key starts with `prefix` and returns how many
  /// were dropped. The serving layer purges a removed dataset's shard keys
  /// by its fingerprint prefix ("<fingerprint>|"), so a retired engine's
  /// rendered answers stop occupying budget the remaining datasets share.
  size_t PurgePrefix(const std::string& prefix);

  /// Entries currently cached under `prefix` (counters untouched; exposed so
  /// tests can assert purge completeness).
  size_t CountPrefix(const std::string& prefix) const;

  /// Starts recording per-lookup latency into `metrics` (histogram
  /// "vq_cache_lookup_seconds"). Idempotent; pass the registry the owning
  /// service exposes. Until attached, Get() takes no timestamps at all.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  void Clear();

  /// Counters summed over all shards.
  CacheStats TotalStats() const;

  /// Current entry count per shard (index = shard).
  std::vector<size_t> ShardSizes() const;

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }

  /// Shard a key routes to (exposed so tests can pin keys to shards).
  size_t ShardIndex(const std::string& key) const;

 private:
  struct Entry {
    std::string key;
    ServedAnswerPtr answer;
    /// Absolute expiry on the cache clock; 0 = never expires.
    double expires_at = 0.0;
  };
  struct Shard {
    mutable Mutex mutex;
    /// Front = most recently used. Stores the key alongside the value so
    /// eviction can erase the map entry.
    std::list<Entry> lru GUARDED_BY(mutex);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        GUARDED_BY(mutex);
    CacheStats stats GUARDED_BY(mutex);
    /// Set once at construction, before the shard is visible to any other
    /// thread; no lock needed thereafter.
    size_t capacity = 0;
  };

  /// Unlinks one entry from the shard's list and map (counters are the
  /// caller's job: eviction vs expiration vs purge).
  static void EraseEntry(Shard* shard, std::list<Entry>::iterator it)
      REQUIRES(shard->mutex);

  ServedAnswerPtr GetImpl(const std::string& key);

  double Now() const { return clock_(); }

  size_t capacity_;
  Clock clock_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Set once by AttachMetrics (atomic: Get() may race with attachment).
  std::atomic<obs::LatencyHistogram*> lookup_hist_{nullptr};
};

}  // namespace serve
}  // namespace vq

#endif  // VQ_SERVE_CACHE_H_
