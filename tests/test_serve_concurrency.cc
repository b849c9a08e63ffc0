/**
 * @file
 * Tests of the serving layer's concurrency machinery (ISSUE PR 6):
 * the seqlock hit path never serves a torn read, the deferred access
 * log makes the locked and seqlock end states coincide at one worker,
 * and a miss stampede on one key coalesces onto a single backend
 * fetch while every requester's EWMA still sees a sample.
 *
 * Suite names contain "Serve" so the CI TSan job's ctest regex picks
 * every one of these up; the torn-read and stampede tests are the
 * ones TSan is pointed at.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/SimdScan.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/InflightTable.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::serve;

namespace
{

/** One-shard service with far fewer lines than the keyspace, so gets
 *  churn the tag/value lanes while readers probe them. */
ServeConfig
churnConfig(PolicyKind policy, HitPath path)
{
    ServeConfig config;
    config.shards = 1;
    config.shardBytes = 4 * 1024; // 64 lines
    config.assoc = 8;
    config.policy = policy;
    config.hitPath = path;
    return config;
}

/** The deterministic payload a put() writes in these tests. */
std::uint64_t
putPayload(Addr key)
{
    return hashMix64(key ^ 0xC0FFEEull);
}

/**
 * A backend whose fetches block until release(): lets a test park N
 * threads on one cold key and then prove only one fetch ever ran.
 */
class GateBackend : public Backend
{
  public:
    BackendResult
    fetch(Addr key, std::uint64_t) override
    {
        fetches.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return released_; });
        BackendResult result;
        result.value = valueOf(key);
        result.latencyNs = 5000.0;
        return result;
    }

    BackendResult
    store(Addr, std::uint64_t value, std::uint64_t) override
    {
        BackendResult result;
        result.value = value;
        result.latencyNs = 1000.0;
        return result;
    }

    std::string describe() const override { return "gate"; }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        cv_.notify_all();
    }

    static std::uint64_t valueOf(Addr key) { return hashMix64(key); }

    std::atomic<std::uint64_t> fetches{0};

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool released_ = false;
};

/**
 * GateBackend variant whose next gated fetch throws after release():
 * the leader-crash test needs a backend that fails exactly once and
 * then recovers.
 */
class CrashOnceBackend : public GateBackend
{
  public:
    BackendResult
    fetch(Addr key, std::uint64_t salt) override
    {
        const BackendResult result = GateBackend::fetch(key, salt);
        if (failNext_.exchange(false))
            throw InjectedFaultError("injected backend failure");
        return result;
    }

  private:
    std::atomic<bool> failNext_{true};
};

/**
 * GateBackend variant that parks only its first fetch at the gate and
 * serves every later one at once: a leader wedged on a hung backend
 * while the key's next requester finds a healthy one.
 */
class WedgeOnceBackend : public GateBackend
{
  public:
    BackendResult
    fetch(Addr key, std::uint64_t salt) override
    {
        if (wedgeNext_.exchange(false))
            return GateBackend::fetch(key, salt);
        fetches.fetch_add(1, std::memory_order_relaxed);
        BackendResult result;
        result.value = valueOf(key);
        result.latencyNs = 5000.0;
        return result;
    }

  private:
    std::atomic<bool> wedgeNext_{true};
};

} // namespace

// ---------------------------------------------------------------------------
// SIMD tag scan
// ---------------------------------------------------------------------------

TEST(ServeSimdScan, MatchesScalarOnEveryMaskShape)
{
    // The dispatched kernel (AVX2 where the CPU has it) must agree
    // with the scalar reference bit for bit, including the unaligned
    // tail beyond a multiple of four ways.
    std::vector<std::uint64_t> tags;
    for (std::uint32_t count = 0; count <= 19; ++count) {
        tags.assign(count, 0);
        for (std::uint32_t i = 0; i < count; ++i)
            tags[i] = hashMix64(i) & 3; // force collisions
        for (std::uint64_t needle = 0; needle < 4; ++needle) {
            const std::uint64_t want =
                simd::tagEqMaskScalar(tags.data(), count, needle);
            const std::uint64_t got =
                simd::kTagEqMask(tags.data(), count, needle);
            EXPECT_EQ(want, got)
                << "count=" << count << " needle=" << needle
                << " isa=" << simd::tagScanIsa();
        }
    }
}

// ---------------------------------------------------------------------------
// Seqlock hit path
// ---------------------------------------------------------------------------

TEST(ServeSeqlock, ParseAndNameRoundTrip)
{
    EXPECT_EQ(parseHitPath("locked"), HitPath::Locked);
    EXPECT_EQ(parseHitPath("seqlock"), HitPath::Seqlock);
    EXPECT_FALSE(parseHitPath("optimistic").has_value());
    EXPECT_STREQ(hitPathName(HitPath::Locked), "locked");
    EXPECT_STREQ(hitPathName(HitPath::Seqlock), "seqlock");
}

TEST(ServeSeqlock, RejectsBadAccessLogCapacity)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = churnConfig(PolicyKind::Lru, HitPath::Seqlock);
    config.accessLogCapacity = 48; // not a power of two
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config.accessLogCapacity = 1;
    EXPECT_THROW(CacheService(config, backend), ConfigError);
}

/**
 * The torn-read detector.  The synthetic backend's value is a pure
 * function of the key, so if an optimistic reader ever pairs key A's
 * tag with key B's value -- a fill racing the probe -- the returned
 * value is provably wrong.  Keyspace >> capacity keeps the tag and
 * value lanes churning under the readers the whole time.
 */
TEST(ServeSeqlock, NeverServesATornReadUnderFillChurn)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 17;
    SyntheticBackend backend(backend_config);
    CacheService service(churnConfig(PolicyKind::Lru, HitPath::Seqlock),
                         backend);

    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kOpsPerThread = 20000;
    constexpr Addr kKeys = 512; // 8x the line count
    std::atomic<std::uint64_t> wrong{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            std::uint64_t rng = hashMix64(t + 1);
            for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
                rng = hashMix64(rng);
                const Addr key = rng % kKeys;
                const ServeOpResult result = service.get(key);
                if (result.value != backend.valueOf(key))
                    wrong.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(wrong.load(), 0u);
    service.checkInvariants();

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.gets, kThreads * kOpsPerThread);
    EXPECT_EQ(totals.gets, totals.hits + totals.misses);
    EXPECT_LE(totals.seqlockHits, totals.hits);
    EXPECT_EQ(totals.backendFetches + totals.coalescedMisses,
              totals.misses);
}

/**
 * Same detector with a writer in the mix: every observed value must
 * be either the backend's or the put payload -- never a mix of two
 * cache lines.
 */
TEST(ServeSeqlock, ValuesStayLegalUnderConcurrentPuts)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 23;
    SyntheticBackend backend(backend_config);
    CacheService service(churnConfig(PolicyKind::Acl, HitPath::Seqlock),
                         backend);

    constexpr Addr kKeys = 256;
    constexpr std::uint64_t kOpsPerThread = 15000;
    std::atomic<std::uint64_t> illegal{0};

    std::thread writer([&] {
        std::uint64_t rng = 0x5EEDull;
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
            rng = hashMix64(rng);
            const Addr key = rng % kKeys;
            service.put(key, putPayload(key));
        }
    });
    std::vector<std::thread> readers;
    for (unsigned t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            std::uint64_t rng = hashMix64(t + 100);
            for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
                rng = hashMix64(rng);
                const Addr key = rng % kKeys;
                const std::uint64_t value = service.get(key).value;
                if (value != backend.valueOf(key) &&
                    value != putPayload(key))
                    illegal.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    writer.join();
    for (auto &thread : readers)
        thread.join();

    EXPECT_EQ(illegal.load(), 0u);
    service.checkInvariants();
}

/**
 * At one worker the deferred access log is drained before every
 * locked op, so the policy sees the exact access order the fully
 * locked path produces: identical hits, misses, evictions, and
 * bit-identical cost sums, for every policy.
 */
TEST(ServeSeqlock, EndStateMatchesLockedPathAtOneWorker)
{
    for (const PolicyKind policy :
         {PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
          PolicyKind::Dcl, PolicyKind::Acl}) {
        HarnessConfig harness;
        harness.ops = 60000;
        harness.workers = 1;
        harness.seed = 99;
        harness.mix.numKeys = 8192;

        SyntheticBackendConfig backend_config;
        backend_config.seed = 7;

        ServeTotals totals[2];
        for (const HitPath path :
             {HitPath::Locked, HitPath::Seqlock}) {
            SyntheticBackend backend(backend_config);
            ServeConfig config = churnConfig(policy, path);
            config.shards = 4;
            config.shardBytes = 16 * 1024;
            CacheService service(config, backend);
            totals[path == HitPath::Seqlock] =
                runLoad(service, harness).totals;
            service.checkInvariants();
        }
        EXPECT_EQ(totals[0].gets, totals[1].gets);
        EXPECT_EQ(totals[0].hits, totals[1].hits);
        EXPECT_EQ(totals[0].misses, totals[1].misses);
        EXPECT_EQ(totals[0].storeHits, totals[1].storeHits);
        EXPECT_EQ(totals[0].evictions, totals[1].evictions);
        EXPECT_EQ(totals[0].trackedKeys, totals[1].trackedKeys);
        EXPECT_EQ(totals[0].missCostNs, totals[1].missCostNs);
        EXPECT_EQ(totals[0].storeCostNs, totals[1].storeCostNs);
        // The seqlock run must actually have exercised the lock-free
        // path, not fallen back throughout.
        EXPECT_EQ(totals[0].seqlockHits, 0u);
        EXPECT_GT(totals[1].seqlockHits, 0u);
    }
}

/**
 * A saturated access log is counted apart from contention fallbacks:
 * with a capacity-2 log and no locked op to drain it, every third
 * optimistic hit finds the log full, is re-served on the locked path
 * (draining it), and bumps logFullFallbacks -- while lockedFallbacks
 * (retry-budget exhaustion) stays zero on a single thread.
 */
TEST(ServeSeqlock, FullAccessLogIsCountedApartFromContention)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = churnConfig(PolicyKind::Lru, HitPath::Seqlock);
    config.accessLogCapacity = 2;
    CacheService service(config, backend);

    service.get(7); // install
    constexpr std::uint64_t kHits = 12;
    for (std::uint64_t i = 0; i < kHits; ++i)
        EXPECT_TRUE(service.get(7).hit);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.gets, kHits + 1);
    EXPECT_EQ(totals.hits, kHits);
    EXPECT_GT(totals.logFullFallbacks, 0u);
    EXPECT_EQ(totals.lockedFallbacks, 0u);
    // Every hit was either served lock-free or re-served locked after
    // a full-log fallback; the two tallies partition the hits.
    EXPECT_EQ(totals.seqlockHits + totals.logFullFallbacks,
              totals.hits);
    service.checkInvariants();
}

/**
 * The one-worker end-state equality holds inside a striped shard too:
 * stripes only partition the sets, so with the same drain points the
 * locked and seqlock paths still see identical access orders.
 */
TEST(ServeSeqlock, EndStateMatchesLockedPathAtOneWorkerWhenStriped)
{
    for (const PolicyKind policy :
         {PolicyKind::Lru, PolicyKind::Dcl, PolicyKind::Acl}) {
        HarnessConfig harness;
        harness.ops = 60000;
        harness.workers = 1;
        harness.seed = 99;
        harness.mix.numKeys = 8192;

        SyntheticBackendConfig backend_config;
        backend_config.seed = 7;

        ServeTotals totals[2];
        for (const HitPath path :
             {HitPath::Locked, HitPath::Seqlock}) {
            SyntheticBackend backend(backend_config);
            ServeConfig config = churnConfig(policy, path);
            config.shards = 4;
            config.shardBytes = 16 * 1024;
            config.stripes = 4;
            CacheService service(config, backend);
            totals[path == HitPath::Seqlock] =
                runLoad(service, harness).totals;
            service.checkInvariants();
        }
        EXPECT_EQ(totals[0].gets, totals[1].gets);
        EXPECT_EQ(totals[0].hits, totals[1].hits);
        EXPECT_EQ(totals[0].misses, totals[1].misses);
        EXPECT_EQ(totals[0].storeHits, totals[1].storeHits);
        EXPECT_EQ(totals[0].evictions, totals[1].evictions);
        EXPECT_EQ(totals[0].trackedKeys, totals[1].trackedKeys);
        EXPECT_EQ(totals[0].missCostNs, totals[1].missCostNs);
        EXPECT_EQ(totals[0].storeCostNs, totals[1].storeCostNs);
        EXPECT_GT(totals[1].seqlockHits, 0u);
    }
}

TEST(ServeSeqlock, FreeAffinityHarnessRunValidatesClean)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = churnConfig(PolicyKind::Acl, HitPath::Seqlock);
    config.shards = 4;
    CacheService service(config, backend);

    HarnessConfig harness;
    harness.ops = 40000;
    harness.workers = 4;
    harness.seed = 5;
    harness.shardAffinity = false; // real contention
    harness.mix.numKeys = 4096;

    const HarnessResult result = runLoad(service, harness);
    service.checkInvariants();
    EXPECT_EQ(result.totals.gets,
              result.totals.hits + result.totals.misses);
    EXPECT_EQ(result.totals.backendFetches +
                  result.totals.coalescedMisses,
              result.totals.misses);
}

// ---------------------------------------------------------------------------
// Single-flight miss coalescing
// ---------------------------------------------------------------------------

/**
 * The stampede test: N threads miss on one cold key while the
 * backend's gate is shut.  Exactly one fetch may run; everyone gets
 * the value; every requester's EWMA records a sample.
 */
TEST(ServeSingleFlight, StampedeOnOneKeyCoalescesToOneFetch)
{
    GateBackend backend;
    CacheService service(churnConfig(PolicyKind::Lru, HitPath::Seqlock),
                         backend);

    constexpr unsigned kThreads = 8;
    constexpr Addr kKey = 42;
    std::atomic<unsigned> wrongValues{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const ServeOpResult result = service.get(kKey);
            if (result.hit ||
                result.value != GateBackend::valueOf(kKey))
                wrongValues.fetch_add(1, std::memory_order_relaxed);
        });
    }

    // Wait until the other N-1 threads have parked on the leader's
    // in-flight entry, then open the gate.
    while (service.totals().coalescedMisses + 1 < kThreads)
        std::this_thread::yield();
    backend.release();
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(wrongValues.load(), 0u);
    EXPECT_EQ(backend.fetches.load(), 1u);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, kThreads);
    EXPECT_EQ(totals.backendFetches, 1u);
    EXPECT_EQ(totals.coalescedMisses, kThreads - 1);
    // One observation per requester: the cost signal is not starved
    // by the coalescing.
    EXPECT_EQ(service.keySamples(kKey), kThreads);
    // Each requester was charged the leader's measured latency.
    EXPECT_EQ(totals.missCostNs, 5000.0 * kThreads);

    // The key is now resident: a subsequent get is a pure hit.
    const ServeOpResult again = service.get(kKey);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(again.value, GateBackend::valueOf(kKey));
    service.checkInvariants();
}

/**
 * Leader crash path: the backend throws out of the single-flight
 * leader's fetch.  Every parked waiter must be woken with that error
 * -- not left on the condition variable forever -- and the in-flight
 * entry must be retired first, so the next get() elects a fresh
 * leader and the service keeps working.
 */
TEST(ServeSingleFlight, LeaderCrashWakesWaitersWithTheError)
{
    CrashOnceBackend backend;
    CacheService service(churnConfig(PolicyKind::Lru, HitPath::Seqlock),
                         backend);

    constexpr unsigned kThreads = 6;
    constexpr Addr kKey = 42;
    std::atomic<unsigned> failed{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            try {
                service.get(kKey);
            } catch (const InjectedFaultError &) {
                failed.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    // Park the other N-1 threads on the leader's in-flight entry,
    // then open the gate and let the leader's fetch throw.
    while (service.totals().coalescedMisses + 1 < kThreads)
        std::this_thread::yield();
    backend.release();
    for (auto &thread : threads)
        thread.join();

    // The leader rethrows its own error; every waiter gets the same
    // one from awaitFetch.  Nobody deadlocks, nobody fabricates a
    // value.
    EXPECT_EQ(failed.load(), kThreads);
    EXPECT_EQ(backend.fetches.load(), 1u);

    // The crashed flight was erased: the retry elects a fresh leader
    // and the (now recovered) backend serves it.
    const ServeOpResult retry = service.get(kKey);
    EXPECT_FALSE(retry.hit);
    EXPECT_EQ(retry.value, GateBackend::valueOf(kKey));
    EXPECT_EQ(backend.fetches.load(), 2u);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, kThreads + 1u);
    EXPECT_EQ(totals.coalescedMisses, kThreads - 1u);
    // Only the successful fetch is counted (and only it feeds the
    // cost signal): the crashed one produced no sample.
    EXPECT_EQ(totals.backendFetches, 1u);
    EXPECT_EQ(service.keySamples(kKey), 1u);
    EXPECT_TRUE(service.get(kKey).hit);
    service.checkInvariants();
}

/**
 * Striping must not break single-flight: the stampede test again,
 * with the shard split into 4 stripes (the cold key lives in exactly
 * one of them, whose in-flight table does the coalescing).
 */
TEST(ServeSingleFlight, StripedStampedeStillCoalescesToOneFetch)
{
    GateBackend backend;
    ServeConfig config = churnConfig(PolicyKind::Acl, HitPath::Seqlock);
    config.stripes = 4;
    CacheService service(config, backend);

    constexpr unsigned kThreads = 8;
    constexpr Addr kKey = 42;
    std::atomic<unsigned> wrongValues{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            const ServeOpResult result = service.get(kKey);
            if (result.hit ||
                result.value != GateBackend::valueOf(kKey))
                wrongValues.fetch_add(1, std::memory_order_relaxed);
        });
    }
    while (service.totals().coalescedMisses + 1 < kThreads)
        std::this_thread::yield();
    backend.release();
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(wrongValues.load(), 0u);
    EXPECT_EQ(backend.fetches.load(), 1u);
    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, kThreads);
    EXPECT_EQ(totals.backendFetches, 1u);
    EXPECT_EQ(totals.coalescedMisses, kThreads - 1);
    EXPECT_EQ(service.keySamples(kKey), kThreads);
    service.checkInvariants();
}

TEST(ServeSingleFlight, LeaderOnlyClaimCarriesNoFlight)
{
    InflightTable table;
    const auto [flight, leader] = table.claim(7);
    EXPECT_TRUE(leader);
    EXPECT_EQ(flight, nullptr);
    EXPECT_EQ(table.size(), 1u);
    // Nobody joined: the leader has nothing to publish.
    EXPECT_EQ(table.erase(7), nullptr);
    EXPECT_EQ(table.size(), 0u);
}

TEST(ServeSingleFlight, FirstJoinMakesTheFlightAndEraseHandsItBack)
{
    InflightTable table;
    ASSERT_TRUE(table.claim(7).second);
    const auto [flight, leader] = table.claim(7);
    EXPECT_FALSE(leader);
    ASSERT_NE(flight, nullptr);
    // Later joiners share the first joiner's flight.
    EXPECT_EQ(table.claim(7).first, flight);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(table.erase(7), flight);
    EXPECT_EQ(table.size(), 0u);
    // The key is free again: the next claim leads.
    EXPECT_TRUE(table.claim(7).second);
}

TEST(ServeSingleFlight, TakeAllReturnsOneFlightPerInflightKey)
{
    InflightTable table;
    for (Addr key = 1; key <= 3; ++key)
        ASSERT_TRUE(table.claim(key).second);
    const std::shared_ptr<InflightFetch> joined = table.claim(2).first;
    ASSERT_NE(joined, nullptr);

    const auto flights = table.takeAll();
    ASSERT_EQ(flights.size(), 3u);
    for (const auto &flight : flights)
        EXPECT_NE(flight, nullptr);
    EXPECT_EQ(std::count(flights.begin(), flights.end(), joined), 1);
    EXPECT_EQ(table.size(), 0u);
    // A leader finishing after the drain finds its entry gone.
    EXPECT_EQ(table.erase(1), nullptr);
}

/**
 * The drain path through the service: a leader wedged in its fetch,
 * with nobody joined, is still one in-flight fetch to failInflight(),
 * and the key's next get elects a fresh leader instead of waiting on
 * the wedged one.
 */
TEST(ServeSingleFlight, WedgedLeaderWithoutJoinerIsFailedAndReplaced)
{
    WedgeOnceBackend backend;
    CacheService service(churnConfig(PolicyKind::Lru, HitPath::Locked),
                         backend);
    constexpr Addr kKey = 42;
    std::atomic<bool> leaderFailed{false};

    std::thread wedged([&] {
        try {
            service.get(kKey);
        } catch (...) {
            leaderFailed.store(true);
        }
    });
    while (backend.fetches.load() == 0)
        std::this_thread::yield();

    EXPECT_EQ(service.failInflight("drain"), 1u);
    EXPECT_EQ(service.failInflight("drain"), 0u);

    const ServeOpResult fresh = service.get(kKey);
    EXPECT_FALSE(fresh.hit);
    EXPECT_EQ(fresh.value, GateBackend::valueOf(kKey));
    EXPECT_EQ(backend.fetches.load(), 2u);
    EXPECT_EQ(service.totals().coalescedMisses, 0u);

    // The late leader completes against a gone entry, harmlessly.
    backend.release();
    wedged.join();
    EXPECT_FALSE(leaderFailed.load());
    EXPECT_EQ(service.totals().backendFetches, 2u);
    EXPECT_TRUE(service.get(kKey).hit);
    service.checkInvariants();
}

TEST(ServeSingleFlight, LockedPathCountsOneFetchPerMiss)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(churnConfig(PolicyKind::Lru, HitPath::Locked),
                         backend);
    for (Addr key = 0; key < 200; ++key)
        service.get(key);
    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.backendFetches, totals.misses);
    EXPECT_EQ(totals.coalescedMisses, 0u);
    EXPECT_EQ(totals.seqlockHits, 0u);
    EXPECT_EQ(totals.lockedFallbacks, 0u);
}
