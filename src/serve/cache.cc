#include "serve/cache.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "util/stopwatch.h"

namespace vq {
namespace serve {

namespace {

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t result = 1;
  while (result < n) result <<= 1;
  return result;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardedSummaryCache::ShardedSummaryCache(size_t capacity, size_t num_shards,
                                         Clock clock)
    : clock_(clock ? std::move(clock) : Clock(&SteadySeconds)) {
  capacity_ = std::max<size_t>(1, capacity);
  num_shards = RoundUpToPowerOfTwo(std::max<size_t>(1, num_shards));
  // More shards than entries would leave shards with zero budget.
  while (num_shards > capacity_) num_shards >>= 1;
  // Split the budget so the shard capacities sum exactly to capacity_: the
  // first (capacity_ % num_shards) shards take one extra entry.
  size_t base = capacity_ / num_shards;
  size_t remainder = capacity_ % num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < remainder ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

size_t ShardedSummaryCache::ShardIndex(const std::string& key) const {
  return std::hash<std::string>{}(key) & (shards_.size() - 1);
}

void ShardedSummaryCache::EraseEntry(Shard* shard,
                                     std::list<Entry>::iterator it) {
  shard->index.erase(it->key);
  shard->lru.erase(it);
}

void ShardedSummaryCache::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  // relaxed: the histogram is fully built by the registry before it is
  // returned; the pointer is the only state shared through this cell.
  lookup_hist_.store(metrics->GetHistogram("vq_cache_lookup_seconds"),
                     std::memory_order_relaxed);
}

ServedAnswerPtr ShardedSummaryCache::Get(const std::string& key) {
  // relaxed: see AttachMetrics.
  obs::LatencyHistogram* hist = lookup_hist_.load(std::memory_order_relaxed);
  if (hist == nullptr) return GetImpl(key);  // untimed until metrics attach
  // 1-in-16 sampled timing: the lookup sits on the >100k-qps hit path, and
  // two clock reads per call cost more than the lock it is measuring. The
  // histogram reflects the lookup-latency DISTRIBUTION (rates come from the
  // hit/miss counters, which count every call).
  thread_local uint32_t lookup_tick = 0;
  if ((++lookup_tick & 0xF) != 0) return GetImpl(key);
  Stopwatch watch;
  ServedAnswerPtr answer = GetImpl(key);
  hist->Record(watch.ElapsedSeconds());
  return answer;
}

ServedAnswerPtr ShardedSummaryCache::GetImpl(const std::string& key) {
  Shard& shard = *shards_[ShardIndex(key)];
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  if (it->second->expires_at > 0.0 && Now() >= it->second->expires_at) {
    EraseEntry(&shard, it->second);
    ++shard.stats.expirations;
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  // Move the entry to the front of the recency list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->answer;
}

ServedAnswerPtr ShardedSummaryCache::GetStale(const std::string& key,
                                              bool* was_stale) {
  if (was_stale != nullptr) *was_stale = false;
  Shard& shard = *shards_[ShardIndex(key)];
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end() || !it->second->answer->answered) {
    ++shard.stats.misses;
    return nullptr;
  }
  if (it->second->expires_at > 0.0 && Now() >= it->second->expires_at) {
    if (was_stale != nullptr) *was_stale = true;
    ++shard.stats.stale_serves;
  } else {
    ++shard.stats.hits;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->answer;
}

void ShardedSummaryCache::Put(const std::string& key, ServedAnswerPtr answer,
                              double ttl_seconds) {
  double expires_at = ttl_seconds > 0.0 ? Now() + ttl_seconds : 0.0;
  Shard& shard = *shards_[ShardIndex(key)];
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->answer = std::move(answer);
    it->second->expires_at = expires_at;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= shard.capacity) {
    EraseEntry(&shard, std::prev(shard.lru.end()));
    ++shard.stats.evictions;
  }
  shard.lru.emplace_front(Entry{key, std::move(answer), expires_at});
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.insertions;
}

bool ShardedSummaryCache::Contains(const std::string& key) const {
  const Shard& shard = *shards_[ShardIndex(key)];
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  return it->second->expires_at <= 0.0 || Now() < it->second->expires_at;
}

size_t ShardedSummaryCache::PurgePrefix(const std::string& prefix) {
  size_t purged = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      auto next = std::next(it);
      if (it->key.starts_with(prefix)) {
        EraseEntry(shard.get(), it);
        ++purged;
      }
      it = next;
    }
  }
  return purged;
}

size_t ShardedSummaryCache::CountPrefix(const std::string& prefix) const {
  size_t count = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const Entry& entry : shard->lru) {
      if (entry.key.starts_with(prefix)) ++count;
    }
  }
  return count;
}

void ShardedSummaryCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

CacheStats ShardedSummaryCache::TotalStats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.insertions += shard->stats.insertions;
    total.evictions += shard->stats.evictions;
    total.expirations += shard->stats.expirations;
    total.stale_serves += shard->stats.stale_serves;
  }
  return total;
}

std::vector<size_t> ShardedSummaryCache::ShardSizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    sizes.push_back(shard->lru.size());
  }
  return sizes;
}

size_t ShardedSummaryCache::size() const {
  size_t total = 0;
  for (size_t s : ShardSizes()) total += s;
  return total;
}

}  // namespace serve
}  // namespace vq
