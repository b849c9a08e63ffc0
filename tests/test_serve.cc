/**
 * @file
 * Tests of the serving layer (src/serve): backend and key-generator
 * determinism, CacheService semantics, the load harness's
 * worker-count-invariance contract, and concurrent telemetry use from
 * serve worker threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/KeyGenerator.h"
#include "serve/KeyTable.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::serve;

namespace
{
/** Every operator new in this binary, for the steady-state
 *  allocation test. */
std::atomic<std::uint64_t> allocations{0};
} // namespace

// Out of line, like the deletes below, so no call site sees
// malloc() or free() meet operator new or delete.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

/** Minimal recursive-descent JSON validator (same contract as
 *  test_telemetry's: "consumers can parse this" checked for real). */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    std::string text_;
    std::size_t pos_ = 0;
};

ServeConfig
smallServeConfig(PolicyKind policy)
{
    ServeConfig config;
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.assoc = 4;
    config.policy = policy;
    return config;
}

HarnessConfig
smallHarnessConfig(std::uint64_t ops, unsigned workers)
{
    HarnessConfig config;
    config.ops = ops;
    config.workers = workers;
    config.seed = 99;
    config.mix.numKeys = 8192;
    return config;
}

bool
totalsEqual(const ServeTotals &a, const ServeTotals &b)
{
    return a.gets == b.gets && a.hits == b.hits &&
           a.misses == b.misses && a.stores == b.stores &&
           a.storeHits == b.storeHits && a.evictions == b.evictions &&
           a.trackedKeys == b.trackedKeys &&
           a.missCostNs == b.missCostNs && // bit-equal, by contract
           a.storeCostNs == b.storeCostNs;
}

} // namespace

// ---------------------------------------------------------------------------
// SyntheticBackend
// ---------------------------------------------------------------------------

TEST(SyntheticBackend, IsAPureFunctionOfSeedKeySalt)
{
    SyntheticBackendConfig config;
    config.seed = 5;
    SyntheticBackend a(config), b(config);
    for (Addr key = 0; key < 64; ++key) {
        for (std::uint64_t salt = 0; salt < 3; ++salt) {
            const BackendResult ra = a.fetch(key, salt);
            const BackendResult rb = b.fetch(key, salt);
            EXPECT_EQ(ra.value, rb.value);
            EXPECT_EQ(ra.latencyNs, rb.latencyNs);
            EXPECT_EQ(ra.value, a.valueOf(key));
        }
    }
}

TEST(SyntheticBackend, TiersSplitTheKeyspace)
{
    SyntheticBackendConfig config;
    config.slowFraction = 0.25;
    config.jitterFraction = 0.0;
    SyntheticBackend backend(config);
    std::uint64_t slow = 0;
    const int n = 4096;
    for (Addr key = 0; key < n; ++key) {
        const double ns = backend.fetch(key, 0).latencyNs;
        EXPECT_EQ(ns, backend.isSlowKey(key) ? config.slowNs
                                             : config.fastNs);
        slow += backend.isSlowKey(key);
    }
    EXPECT_NEAR(static_cast<double>(slow) / n, 0.25, 0.05);
}

TEST(SyntheticBackend, JitterIsBoundedAndSaltDependent)
{
    SyntheticBackendConfig config;
    config.jitterFraction = 0.1;
    SyntheticBackend backend(config);
    const Addr key = 17;
    const double base = backend.baseLatencyNs(key);
    std::set<double> seen;
    for (std::uint64_t salt = 0; salt < 16; ++salt) {
        const double ns = backend.fetch(key, salt).latencyNs;
        EXPECT_GE(ns, base * 0.9 - 1e-9);
        EXPECT_LE(ns, base * 1.1 + 1e-9);
        seen.insert(ns);
    }
    EXPECT_GT(seen.size(), 1u); // salt actually varies the draw
}

TEST(SyntheticBackend, RejectsBadConfig)
{
    SyntheticBackendConfig bad;
    bad.slowFraction = 1.5;
    EXPECT_THROW(SyntheticBackend{bad}, ConfigError);
    bad = SyntheticBackendConfig{};
    bad.fastNs = -1.0;
    EXPECT_THROW(SyntheticBackend{bad}, ConfigError);
    bad = SyntheticBackendConfig{};
    bad.jitterFraction = 2.0;
    EXPECT_THROW(SyntheticBackend{bad}, ConfigError);
}

// ---------------------------------------------------------------------------
// KeyGenerator
// ---------------------------------------------------------------------------

TEST(KeyGenerator, StreamIsDeterministic)
{
    WorkloadMix mix;
    mix.numKeys = 1024;
    KeyGenerator a(mix, 7), b(mix, 7);
    for (int i = 0; i < 1000; ++i) {
        const Op oa = a.next();
        const Op ob = b.next();
        EXPECT_EQ(oa.key, ob.key);
        EXPECT_EQ(oa.write, ob.write);
        EXPECT_LT(oa.key, mix.numKeys);
    }
}

TEST(KeyGenerator, KeySequenceInvariantAcrossWriteFractions)
{
    WorkloadMix reads;
    reads.numKeys = 1024;
    reads.writeFraction = 0.0;
    WorkloadMix writes = reads;
    writes.writeFraction = 0.5;
    KeyGenerator a(reads, 7), b(writes, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next().key, b.next().key);
}

TEST(KeyGenerator, ZipfianIsSkewed)
{
    WorkloadMix mix;
    mix.dist = KeyDist::Zipfian;
    mix.numKeys = 10000;
    KeyGenerator gen(mix, 3);
    std::map<Addr, int> counts;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ++counts[gen.next().key];
    int top = 0;
    for (const auto &[key, count] : counts)
        top = std::max(top, count);
    // The hottest key draws far more than the uniform share (2 of
    // 20000); theta=0.99 gives it roughly 1/zeta(n) ~ 10%.
    EXPECT_GT(top, n / 100);
}

TEST(KeyGenerator, HotspotConcentratesAccesses)
{
    WorkloadMix mix;
    mix.dist = KeyDist::Hotspot;
    mix.numKeys = 10000;
    mix.hotFraction = 0.1;
    mix.hotProbability = 0.9;
    KeyGenerator gen(mix, 3);
    int hot = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hot += gen.next().key < 1000;
    EXPECT_NEAR(static_cast<double>(hot) / n, 0.9, 0.02);
}

TEST(KeyGenerator, ScanSweepsAndWraps)
{
    WorkloadMix mix;
    mix.dist = KeyDist::Scan;
    mix.numKeys = 100;
    KeyGenerator gen(mix, 3);
    for (int round = 0; round < 3; ++round)
        for (Addr expect = 0; expect < 100; ++expect)
            EXPECT_EQ(gen.next().key, expect);
}

TEST(KeyGenerator, RejectsBadMix)
{
    WorkloadMix mix;
    mix.numKeys = 0;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    mix = WorkloadMix{};
    mix.zipfTheta = 1.0;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    mix = WorkloadMix{};
    mix.writeFraction = -0.5;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    mix = WorkloadMix{};
    mix.dist = KeyDist::Hotspot;
    mix.hotFraction = 0.0;
    EXPECT_THROW(KeyGenerator(mix, 1), ConfigError);
    EXPECT_THROW(parseKeyDist("pareto"), ConfigError);
    EXPECT_EQ(parseKeyDist("ZIPFIAN"), KeyDist::Zipfian);
}

// ---------------------------------------------------------------------------
// CacheService
// ---------------------------------------------------------------------------

TEST(CacheService, RejectsBadConfig)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Lru);
    config.shards = 3; // not a power of two
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config = smallServeConfig(PolicyKind::Opt);
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config = smallServeConfig(PolicyKind::Lru);
    config.ewmaAlpha = 0.0;
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    config = smallServeConfig(PolicyKind::Lru);
    config.assoc = 3; // CacheGeometry rejects non-pow2 assoc
    EXPECT_THROW(CacheService(config, backend), CacheGeometryError);
}

TEST(CacheService, RejectsBadStripeCounts)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Lru);
    config.stripes = 3; // not a power of two
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    // smallServeConfig has 64 sets per shard; more stripes than sets
    // would leave stripes without a single set.
    config = smallServeConfig(PolicyKind::Lru);
    config.stripes = 128;
    EXPECT_THROW(CacheService(config, backend), ConfigError);
    // The boundary case -- one set per stripe -- is legal.
    config = smallServeConfig(PolicyKind::Lru);
    config.stripes = 64;
    CacheService service(config, backend);
    EXPECT_EQ(service.numStripes(), 64u);
    service.checkInvariants();
}

TEST(CacheService, AutoStripesResolveToAPowerOfTwo)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Lru);
    config.stripes = kStripesAuto;
    CacheService service(config, backend);
    const unsigned stripes = service.numStripes();
    EXPECT_GE(stripes, 1u);
    EXPECT_EQ(stripes & (stripes - 1), 0u);
}

TEST(CacheService, RequireHitPathValidatesWithAcceptedValues)
{
    EXPECT_EQ(requireHitPath("locked"), HitPath::Locked);
    EXPECT_EQ(requireHitPath("seqlock"), HitPath::Seqlock);
    try {
        requireHitPath("optimistic");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        // The message must list the accepted values.
        EXPECT_NE(std::string(err.what()).find("locked seqlock"),
                  std::string::npos)
            << err.what();
    }
}

TEST(CacheService, RequireStripesValidatesWithAcceptedValues)
{
    EXPECT_EQ(requireStripes("auto"), kStripesAuto);
    EXPECT_EQ(requireStripes("0"), kStripesAuto);
    EXPECT_EQ(requireStripes("1"), 1u);
    EXPECT_EQ(requireStripes("8"), 8u);
    for (const char *bad : {"3", "4x", "", "-4", "99999999999999"}) {
        try {
            requireStripes(bad);
            FAIL() << "expected ConfigError for '" << bad << "'";
        } catch (const ConfigError &err) {
            EXPECT_NE(std::string(err.what()).find("power of two"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(CacheService, ReadAfterWriteHitsAndReturnsTheValue)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Acl), backend);

    const ServeOpResult put = service.put(42, 1234);
    EXPECT_FALSE(put.hit); // write-allocate of a cold key
    EXPECT_GT(put.backendNs, 0.0);

    const ServeOpResult get = service.get(42);
    EXPECT_TRUE(get.hit);
    EXPECT_EQ(get.value, 1234u);

    const ServeOpResult put2 = service.put(42, 5678);
    EXPECT_TRUE(put2.hit); // resident now
    EXPECT_EQ(service.get(42).value, 5678u);

    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.gets, 2u);
    EXPECT_EQ(totals.hits, 2u);
    EXPECT_EQ(totals.stores, 2u);
    EXPECT_EQ(totals.storeHits, 1u);
    service.checkInvariants();
}

TEST(CacheService, MissFetchesTheBackendValue)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    const ServeOpResult get = service.get(7);
    EXPECT_FALSE(get.hit);
    EXPECT_EQ(get.value, backend.valueOf(7));
    EXPECT_GT(get.backendNs, 0.0);
    EXPECT_TRUE(service.get(7).hit);
    const ServeTotals totals = service.totals();
    EXPECT_EQ(totals.misses, 1u);
    EXPECT_EQ(totals.missCostNs, get.backendNs);
}

/**
 * Once every key has its cost estimate, the service's get miss, get
 * hit, store and del paths allocate nothing: the key table is flat,
 * a single-flight claim nobody joins makes no flight object, and the
 * closed breaker takes no lock.
 */
TEST(CacheService, SteadyStateOpsAllocateNothing)
{
    for (const HitPath path : {HitPath::Locked, HitPath::Seqlock}) {
        SyntheticBackend backend(SyntheticBackendConfig{});
        ServeConfig config = smallServeConfig(PolicyKind::Acl);
        config.hitPath = path;
        config.stripes = 2;
        CacheService service(config, backend);
        // Warm up: every key gets its cost estimate, and every
        // stripe's in-flight vector sees a miss.
        constexpr Addr kKeys = 8192; // 8 keys per line: misses churn
        for (Addr key = 0; key < kKeys; ++key)
            service.put(key, key);
        for (Addr key = 0; key < kKeys; ++key)
            service.get(key);

        Rng rng(3);
        std::vector<Addr> keys(40'000);
        for (Addr &key : keys)
            key = rng.next() % kKeys;
        const ServeTotals warm = service.totals();
        const std::uint64_t before = allocations.load();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (i % 5 == 0)
                service.put(keys[i], i);
            else
                service.get(keys[i]);
            if (i % 97 == 0)
                service.del(keys[i]);
        }
        EXPECT_EQ(allocations.load() - before, 0u) << hitPathName(path);

        const ServeTotals totals = service.totals();
        EXPECT_GT(totals.misses - warm.misses, 10'000u);
        EXPECT_GT(totals.hits - warm.hits, 1'000u);
        EXPECT_GT(totals.storeHits - warm.storeHits, 500u);
        EXPECT_EQ(totals.trackedKeys, kKeys);
    }
}

TEST(CacheService, ShardOfIsStableAndInRange)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    for (Addr key = 0; key < 1000; ++key) {
        const unsigned shard = service.shardOf(key);
        EXPECT_LT(shard, service.numShards());
        EXPECT_EQ(shard, service.shardOf(key));
    }
}

// ---------------------------------------------------------------------------
// The per-stripe key table (the online cost model's storage)
// ---------------------------------------------------------------------------

TEST(ServeKeyTable, StoresAndFindsZeroAndAllOnesKeys)
{
    constexpr Addr kAllOnes = ~Addr{0}; // the table's empty-slot marker
    KeyTable table;
    EXPECT_EQ(table.find(0), nullptr);
    EXPECT_EQ(table.find(kAllOnes), nullptr);

    table[0].observe(100.0, 0.25);
    table[kAllOnes].observe(300.0, 0.25);
    table[kAllOnes].remember(9);
    EXPECT_EQ(table.size(), 2u);

    ASSERT_NE(table.find(0), nullptr);
    EXPECT_EQ(table.find(0)->ewmaNs, 100.0);
    EXPECT_FALSE(table.find(0)->hasValue());
    ASSERT_NE(table.find(kAllOnes), nullptr);
    EXPECT_EQ(table.find(kAllOnes)->ewmaNs, 300.0);
    EXPECT_EQ(table.find(kAllOnes)->samples(), 1u);
    EXPECT_TRUE(table.find(kAllOnes)->hasValue());
    EXPECT_EQ(table.find(kAllOnes)->lastValue, 9u);
    EXPECT_EQ(table.find(1), nullptr);
}

TEST(ServeKeyTable, KeepsEveryEntryAcrossDoublings)
{
    // Thousands of keys force several doublings; every key's state
    // must match a node-based reference map bit for bit.
    KeyTable table;
    std::unordered_map<Addr, KeyState> reference;
    Rng rng(11);
    for (int i = 0; i < 20'000; ++i) {
        // Low-entropy keys (dense, and multiples of a large power of
        // two) next to random ones, to stress the probe sequence.
        const Addr key = i % 3 == 0   ? rng.next()
                         : i % 3 == 1 ? static_cast<Addr>(i % 5000)
                                      : static_cast<Addr>(i % 4000) << 32;
        const double latency = static_cast<double>(rng.next() % 10'000);
        table[key].observe(latency, 0.25);
        reference[key].observe(latency, 0.25);
        if (i % 7 == 0) {
            table[key].remember(static_cast<std::uint64_t>(i));
            reference[key].remember(static_cast<std::uint64_t>(i));
        }
    }
    ASSERT_EQ(table.size(), reference.size());
    for (const auto &[key, want] : reference) {
        const KeyState *got = table.find(key);
        ASSERT_NE(got, nullptr) << key;
        EXPECT_EQ(got->ewmaNs, want.ewmaNs) << key;
        EXPECT_EQ(got->samples(), want.samples()) << key;
        EXPECT_EQ(got->hasValue(), want.hasValue()) << key;
        EXPECT_EQ(got->lastValue, want.lastValue) << key;
    }
}

TEST(ServeKeyTable, ForEachVisitsEachKeyExactlyOnce)
{
    KeyTable table;
    std::set<Addr> inserted = {0, ~Addr{0}, 1, 1ull << 63};
    for (Addr key = 100; key < 1100; ++key)
        inserted.insert(key * 0x9E3779B97F4A7C15ull);
    for (Addr key : inserted)
        table[key].observe(1.0, 0.5);

    std::map<Addr, int> visits;
    table.forEach([&visits](Addr key, const KeyState &state) {
        EXPECT_EQ(state.samples(), 1u);
        ++visits[key];
    });
    EXPECT_EQ(visits.size(), inserted.size());
    EXPECT_EQ(table.size(), inserted.size());
    for (Addr key : inserted)
        EXPECT_EQ(visits[key], 1) << key;
}

TEST(ServeKeyTable, TrackedKeysCountsDistinctKeysTouched)
{
    // A del invalidates the line but keeps (and never creates) the
    // cost estimate, so the tracked keys are those read or written.
    SyntheticBackend backend(SyntheticBackendConfig{});
    ServeConfig config = smallServeConfig(PolicyKind::Acl);
    config.stripes = 2;
    CacheService service(config, backend);
    std::set<Addr> touched;
    Rng rng(5);
    for (int i = 0; i < 30'000; ++i) {
        Addr key = rng.next() % 6'000;
        if (i % 1000 == 0)
            key = i % 2000 == 0 ? 0 : ~Addr{0};
        const std::uint64_t op = rng.next() % 10;
        if (op == 0) {
            service.del(key);
        } else {
            touched.insert(key);
            if (op < 3)
                service.put(key, key ^ 0xABCDull);
            else
                service.get(key);
        }
    }
    EXPECT_EQ(service.totals().trackedKeys, touched.size());
    service.checkInvariants();
}

// ---------------------------------------------------------------------------
// Load harness: the determinism contract
// ---------------------------------------------------------------------------

TEST(LoadHarness, TotalsAreWorkerCountInvariantUnderShardAffinity)
{
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Acl}) {
        std::vector<ServeTotals> totals;
        for (unsigned workers : {1u, 8u}) {
            SyntheticBackend backend(SyntheticBackendConfig{});
            CacheService service(smallServeConfig(kind), backend);
            const HarnessResult result = runLoad(
                service, smallHarnessConfig(50'000, workers));
            EXPECT_EQ(result.totals.gets + result.totals.stores,
                      50'000u);
            service.checkInvariants();
            totals.push_back(result.totals);
        }
        EXPECT_TRUE(totalsEqual(totals[0], totals[1]))
            << "policy #" << static_cast<int>(kind)
            << ": workers=1 vs workers=8 diverged";
    }
}

TEST(LoadHarness, TotalsAreWorkerCountInvariantUnderStriping)
{
    // The striping determinism contract: under shard affinity a
    // shard's stripes are only ever touched by its owning worker, so
    // the totals cannot depend on how many workers exist -- at any
    // stripe count.
    for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Acl}) {
        std::vector<ServeTotals> totals;
        for (unsigned workers : {1u, 8u}) {
            SyntheticBackend backend(SyntheticBackendConfig{});
            ServeConfig config = smallServeConfig(kind);
            config.stripes = 4;
            CacheService service(config, backend);
            const HarnessResult result = runLoad(
                service, smallHarnessConfig(50'000, workers));
            service.checkInvariants();
            totals.push_back(result.totals);
        }
        EXPECT_TRUE(totalsEqual(totals[0], totals[1]))
            << "policy #" << static_cast<int>(kind)
            << ": workers=1 vs workers=8 diverged at stripes=4";
    }
}

TEST(LoadHarness, SeedChangesTheRun)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService a(smallServeConfig(PolicyKind::Lru), backend);
    HarnessConfig config = smallHarnessConfig(20'000, 2);
    const HarnessResult ra = runLoad(a, config);

    SyntheticBackend backend2(SyntheticBackendConfig{});
    CacheService b(smallServeConfig(PolicyKind::Lru), backend2);
    config.seed = 100;
    const HarnessResult rb = runLoad(b, config);
    EXPECT_FALSE(totalsEqual(ra.totals, rb.totals));
}

TEST(LoadHarness, FreeAffinityStillServesEveryOp)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Dcl), backend);
    HarnessConfig config = smallHarnessConfig(20'000, 4);
    config.shardAffinity = false;
    const HarnessResult result = runLoad(service, config);
    EXPECT_EQ(result.totals.gets + result.totals.stores, 20'000u);
    EXPECT_EQ(result.opLatencyNs.totalCount(), 20'000u);
    service.checkInvariants();
}

TEST(LoadHarness, JsonOutputIsValid)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Bcl), backend);
    const HarnessResult result =
        runLoad(service, smallHarnessConfig(5'000, 2));
    std::ostringstream os;
    result.writeJsonObject(os, service.policyName(), "zipf-test");
    JsonValidator validator(os.str());
    EXPECT_TRUE(validator.valid()) << os.str();
    EXPECT_NE(os.str().find("\"missCostNs\""), std::string::npos);
    EXPECT_EQ(os.str().find("null"), std::string::npos) << os.str();

    // A result nobody timed (a server's exit report) writes null for
    // what it never measured, the "n/a" of timingTable(), not 0.
    const HarnessResult untimed(1e6, 16);
    std::ostringstream empty;
    untimed.writeJsonObject(empty, "lru", "none");
    JsonValidator emptyValidator(empty.str());
    EXPECT_TRUE(emptyValidator.valid()) << empty.str();
    for (const char *leaf :
         {"\"wallSec\": null", "\"qps\": null", "\"p50\": null",
          "\"p90\": null", "\"p99\": null"})
        EXPECT_NE(empty.str().find(leaf), std::string::npos) << leaf;
    EXPECT_EQ(empty.str().find("\"p99\": 0"), std::string::npos);
}

TEST(LoadHarness, RejectsBadConfig)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Lru), backend);
    HarnessConfig config = smallHarnessConfig(100, 1);
    config.histBuckets = 0;
    EXPECT_THROW(runLoad(service, config), ConfigError);
    config = smallHarnessConfig(100, 1);
    config.targetQps = -1.0;
    EXPECT_THROW(runLoad(service, config), ConfigError);
}

// ---------------------------------------------------------------------------
// Telemetry from serve worker threads
// ---------------------------------------------------------------------------

#if !defined(CSR_TELEMETRY_DISABLED)

TEST(ServeTelemetry, ConcurrentWorkersProduceBalancedValidTrace)
{
    telemetry::Tracer::instance().clear();
    telemetry::setTracingEnabled(true);
    {
        SyntheticBackend backend(SyntheticBackendConfig{});
        CacheService service(smallServeConfig(PolicyKind::Acl),
                             backend);
        runLoad(service, smallHarnessConfig(20'000, 8));
    }
    telemetry::setTracingEnabled(false);

    std::size_t begins = 0, ends = 0;
    for (const telemetry::TraceEvent &ev :
         telemetry::Tracer::instance().snapshot()) {
        begins += ev.phase == 'B';
        ends += ev.phase == 'E';
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends); // every span closed, on every thread

    std::ostringstream os;
    telemetry::Tracer::instance().writeChromeTrace(os);
    JsonValidator validator(os.str());
    EXPECT_TRUE(validator.valid());
    telemetry::Tracer::instance().clear();
}

#endif // !CSR_TELEMETRY_DISABLED

TEST(ServeTelemetry, ConcurrentMetricExportIsValidJson)
{
    SyntheticBackend backend(SyntheticBackendConfig{});
    CacheService service(smallServeConfig(PolicyKind::Dcl), backend);
    const HarnessResult result =
        runLoad(service, smallHarnessConfig(20'000, 8));

    MetricRegistry registry;
    service.exportMetrics(registry);
    result.exportMetrics(registry);
    EXPECT_EQ(registry.counter("serve.gets") +
                  registry.counter("serve.stores"),
              20'000u);

    std::ostringstream os;
    registry.writeJson(os);
    JsonValidator validator(os.str());
    EXPECT_TRUE(validator.valid()) << os.str();
    EXPECT_NE(os.str().find("serve.op_latency_ns"), std::string::npos);
    // The two fallback flavors are reported apart: a saturated access
    // log is a sizing signal, a beaten retry budget a contention one.
    EXPECT_NE(os.str().find("serve.locked_fallbacks"),
              std::string::npos);
    EXPECT_NE(os.str().find("serve.log_full_fallbacks"),
              std::string::npos);
    EXPECT_NE(os.str().find("serve.stripes"), std::string::npos);
}
