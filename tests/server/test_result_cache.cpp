// The shared result cache: ownership protocol, coalescing, failure
// propagation, byte-budget LRU eviction, the probation queue that caps
// never-hit results, and the ghost list that readmits their repeats.
#include "server/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace {

using cube::Error;
using cube::server::CachedResult;
using cube::server::ResultCache;

CachedResult make_result(const std::string& canonical, std::size_t bytes) {
  CachedResult r;
  r.canonical = canonical;
  r.meta_digest = 1;
  r.meta_blob = std::make_shared<const std::string>("m");
  r.body = std::make_shared<const std::string>(std::string(bytes, 'x'));
  return r;
}

TEST(ResultCache, FirstAcquirerOwnsThenLaterOnesHit) {
  ResultCache cache(1 << 20);
  auto first = cache.acquire(7);
  EXPECT_EQ(first.outcome, ResultCache::Outcome::Owner);
  EXPECT_EQ(first.result, nullptr);

  auto published = cache.publish(7, make_result("mean(a)", 100));
  ASSERT_NE(published, nullptr);

  auto second = cache.acquire(7);
  EXPECT_EQ(second.outcome, ResultCache::Outcome::Hit);
  EXPECT_EQ(second.result, published);  // the same shared instance
  EXPECT_EQ(second.result->canonical, "mean(a)");
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, DistinctKeysAreIndependent) {
  ResultCache cache(1 << 20);
  EXPECT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Owner);
  EXPECT_EQ(cache.acquire(2).outcome, ResultCache::Outcome::Owner);
  cache.publish(1, make_result("a", 10));
  EXPECT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Hit);
  // Key 2 is still in flight; key 1's publish must not have resolved it —
  // this acquire on key 2 would block, so only verify key 1 here and
  // complete key 2.
  cache.publish(2, make_result("b", 10));
  EXPECT_EQ(cache.acquire(2).outcome, ResultCache::Outcome::Hit);
}

TEST(ResultCache, ConcurrentAcquirersShareOneComputation) {
  ResultCache cache(1 << 20);
  auto owner = cache.acquire(42);
  ASSERT_EQ(owner.outcome, ResultCache::Outcome::Owner);

  constexpr int kWaiters = 8;
  std::atomic<int> arrived{0};
  std::vector<std::shared_ptr<const CachedResult>> results(kWaiters);
  std::vector<ResultCache::Outcome> outcomes(kWaiters);
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      auto lookup = cache.acquire(42);
      outcomes[i] = lookup.outcome;
      results[i] = std::move(lookup.result);
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  // The slot is in flight, so every waiter blocks (or, if it was still
  // between the counter and the acquire, hits after publish) — either
  // way nobody becomes a second owner.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto published = cache.publish(42, make_result("shared", 100));
  for (auto& t : threads) t.join();

  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_NE(outcomes[i], ResultCache::Outcome::Owner) << "waiter " << i;
    EXPECT_EQ(results[i], published) << "waiter " << i;
  }
}

TEST(ResultCache, OwnerFailureRethrowsToWaitersAndFreesTheKey) {
  ResultCache cache(1 << 20);
  ASSERT_EQ(cache.acquire(9).outcome, ResultCache::Outcome::Owner);

  constexpr int kWaiters = 4;
  std::atomic<int> arrived{0};
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&] {
      arrived.fetch_add(1);
      try {
        (void)cache.acquire(9);
      } catch (const Error& e) {
        EXPECT_STREQ(e.what(), "operand went missing");
        threw.fetch_add(1);
      }
    });
  }
  while (arrived.load() < kWaiters) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cache.fail(9, [] { throw Error("operand went missing"); });
  for (auto& t : threads) t.join();
  EXPECT_EQ(threw.load(), kWaiters);

  // The failed slot is gone: the next acquirer owns a fresh computation.
  EXPECT_EQ(cache.acquire(9).outcome, ResultCache::Outcome::Owner);
  cache.publish(9, make_result("retry", 10));
  EXPECT_EQ(cache.acquire(9).outcome, ResultCache::Outcome::Hit);
}

TEST(ResultCache, EvictsLeastRecentlyUsedOverByteBudget) {
  ResultCache cache(350);  // fits three ~110-byte entries, not four
  for (std::uint64_t key = 1; key <= 3; ++key) {
    ASSERT_EQ(cache.acquire(key).outcome, ResultCache::Outcome::Owner);
    cache.publish(key, make_result("q" + std::to_string(key), 100));
  }
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Touch key 1 so key 2 is the least recently used.
  EXPECT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Hit);

  ASSERT_EQ(cache.acquire(4).outcome, ResultCache::Outcome::Owner);
  cache.publish(4, make_result("q4", 100));
  EXPECT_GE(cache.evictions(), 1u);
  EXPECT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Hit);
  EXPECT_EQ(cache.acquire(4).outcome, ResultCache::Outcome::Hit);
  EXPECT_EQ(cache.acquire(2).outcome, ResultCache::Outcome::Owner);  // gone
  cache.publish(2, make_result("q2", 100));
}

TEST(ResultCache, OneOffResultsCycleThroughProbation) {
  constexpr std::size_t kProbation = ResultCache::kProbationEntries;
  ResultCache cache(1 << 30);  // the byte budget never binds here
  const auto compute = [&](std::uint64_t key) {
    ASSERT_EQ(cache.acquire(key).outcome, ResultCache::Outcome::Owner);
    cache.publish(key, make_result("q" + std::to_string(key), 10));
  };
  compute(0);
  // A repeat hits while the result is on probation, and promotes it.
  EXPECT_EQ(cache.acquire(0).outcome, ResultCache::Outcome::Hit);
  for (std::uint64_t key = 1; key <= kProbation + 10; ++key) compute(key);
  // Never-hit results are capped; the promoted one survives them all.
  EXPECT_EQ(cache.entries(), kProbation + 1);
  EXPECT_EQ(cache.evictions(), 10u);
  EXPECT_EQ(cache.acquire(0).outcome, ResultCache::Outcome::Hit);
  EXPECT_EQ(cache.acquire(kProbation + 10).outcome,
            ResultCache::Outcome::Hit);
  // The oldest one-offs went first.
  EXPECT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Owner);
  cache.fail(1, [] { throw Error("abandoned"); });
}

TEST(ResultCache, RepeatBeyondProbationMissesOnceThenHits) {
  // Each key repeats after more distinct results than probation holds.
  // Plain LRU hits from the second round on; the ghost list costs one
  // extra miss per key, after which the key lives in the main queue.
  constexpr std::size_t kKeys = 2 * ResultCache::kProbationEntries;
  ResultCache cache(1 << 30);
  std::vector<std::size_t> hits(3, 0);
  for (std::size_t round = 0; round < hits.size(); ++round) {
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      if (cache.acquire(key).outcome == ResultCache::Outcome::Hit) {
        ++hits[round];
        continue;
      }
      cache.publish(key, make_result("q" + std::to_string(key), 10));
    }
  }
  EXPECT_EQ(hits[0], 0u);
  // The newer half is still on probation; the older half re-enters.
  EXPECT_EQ(hits[1], kKeys / 2);
  EXPECT_EQ(hits[2], kKeys);
  EXPECT_EQ(cache.entries(), kKeys);
}

TEST(ResultCache, RepeatsCostAtMostOneExtraMissPerKey) {
  // Half the requests draw from a hot set four times the probation
  // size, half are one-offs.  The budget never binds, so plain LRU
  // misses exactly once per distinct key; 2Q may miss a second time.
  constexpr std::uint64_t kHot = 4 * ResultCache::kProbationEntries;
  ResultCache cache(std::size_t{1} << 30);
  std::mt19937_64 rng(12);
  std::uint64_t one_off = kHot;
  std::size_t misses = 0;
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t key = rng() % 2 == 0 ? rng() % kHot : one_off++;
    if (cache.acquire(key).outcome == ResultCache::Outcome::Hit) continue;
    ++misses;
    cache.publish(key, make_result("q", 8));
  }
  // One miss per one-off, at most two per hot key.
  EXPECT_LE(misses, (one_off - kHot) + 2 * kHot);
}

TEST(ResultCache, GhostListKeepsWhatTheByteBudgetWouldHold) {
  constexpr std::size_t kProbation = ResultCache::kProbationEntries;
  // 10-byte results; the budget holds a full probation queue plus 100
  // more, so the ghost list keeps the 100 newest keys probation evicted.
  ResultCache cache((kProbation + 100) * 10);
  const auto compute = [&](std::uint64_t key) {
    ASSERT_EQ(cache.acquire(key).outcome, ResultCache::Outcome::Owner);
    cache.publish(key, make_result("q", 8));
  };
  std::uint64_t next = 0;
  for (; next < kProbation + 500; ++next) compute(next);
  compute(450);  // remembered: re-enters as a main entry
  compute(10);   // forgotten: back on probation
  for (std::size_t i = 0; i < kProbation; ++i) compute(next++);
  EXPECT_EQ(cache.acquire(450).outcome, ResultCache::Outcome::Hit);
  EXPECT_EQ(cache.acquire(10).outcome, ResultCache::Outcome::Owner);
  cache.fail(10, [] { throw Error("abandoned"); });
}

TEST(ResultCache, OversizedSingleEntryIsEvictedImmediately) {
  ResultCache cache(50);
  ASSERT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Owner);
  auto published = cache.publish(1, make_result("big", 1000));
  // The publisher still gets the result to serve; the cache just cannot
  // retain it.
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(published->canonical, "big");
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.acquire(1).outcome, ResultCache::Outcome::Owner);
  cache.fail(1, [] { throw Error("abandoned"); });
}

}  // namespace
