/**
 * @file
 * Tests for the cost models and the trace-driven two-level simulator
 * (Section 3 methodology): hierarchy behaviour, invalidation
 * handling, cost accounting identities and the TraceStudy harness.
 */

#include <gtest/gtest.h>

#include <limits>

#include "cost/LatencyPredictor.h"
#include "cost/MigrationCost.h"
#include "cost/StaticCostModels.h"
#include "sim/TraceStudy.h"
#include "trace/WorkloadFactory.h"
#include "util/Random.h"

namespace csr
{
namespace
{

TraceRecord
rec(Addr addr, std::uint16_t proc = 0, bool write = false)
{
    return {addr, proc, write};
}

// ---------------------------------------------------------------------------
// Cost models
// ---------------------------------------------------------------------------

TEST(CostModels, UniformIsConstant)
{
    UniformCost cost(3.0);
    EXPECT_DOUBLE_EQ(cost.missCost(0), 3.0);
    EXPECT_DOUBLE_EQ(cost.missCost(12345), 3.0);
}

TEST(CostModels, RandomTwoCostIsDeterministicPerBlock)
{
    RandomTwoCost cost(CostRatio::finite(8), 0.3);
    for (Addr block = 0; block < 100; ++block)
        EXPECT_DOUBLE_EQ(cost.missCost(block), cost.missCost(block));
}

TEST(CostModels, RandomTwoCostMatchesHaf)
{
    const double haf = 0.3;
    RandomTwoCost cost(CostRatio::finite(8), haf);
    std::uint64_t high = 0;
    const std::uint64_t n = 100000;
    for (Addr block = 0; block < n; ++block)
        high += cost.isHighCost(block) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(high) / static_cast<double>(n), haf,
                0.01);
}

TEST(CostModels, RandomTwoCostExtremes)
{
    RandomTwoCost zero(CostRatio::finite(8), 0.0);
    RandomTwoCost one(CostRatio::finite(8), 1.0);
    for (Addr block = 0; block < 1000; ++block) {
        EXPECT_DOUBLE_EQ(zero.missCost(block), 1.0);
        EXPECT_DOUBLE_EQ(one.missCost(block), 8.0);
    }
}

TEST(CostModels, InfiniteRatioEncoding)
{
    const CostRatio inf = CostRatio::makeInfinite();
    EXPECT_DOUBLE_EQ(inf.low, 0.0);
    EXPECT_DOUBLE_EQ(inf.high, 1.0);
    EXPECT_TRUE(inf.infinite);
    EXPECT_EQ(inf.label(), "r=inf");
    EXPECT_EQ(CostRatio::finite(4).label(), "r=4");
}

TEST(CostModels, FirstTouchUsesHomeMap)
{
    std::unordered_map<Addr, ProcId> homes = {{1, 0}, {2, 5}};
    FirstTouchTwoCost cost(CostRatio::finite(4), homes, /*local=*/0);
    EXPECT_DOUBLE_EQ(cost.missCost(1), 1.0);  // local
    EXPECT_DOUBLE_EQ(cost.missCost(2), 4.0);  // remote
    EXPECT_DOUBLE_EQ(cost.missCost(99), 1.0); // unknown -> local
}

TEST(CostModels, TableCostDefaultsAndOverrides)
{
    TableCost cost(2.0);
    cost.set(7, 9.0);
    EXPECT_DOUBLE_EQ(cost.missCost(7), 9.0);
    EXPECT_DOUBLE_EQ(cost.missCost(8), 2.0);
}

TEST(LatencyPredictorTest, LastValueSemantics)
{
    LatencyPredictor pred(120.0);
    EXPECT_DOUBLE_EQ(pred.predict(5), 120.0); // default
    EXPECT_FALSE(pred.known(5));
    pred.update(5, 380.0);
    EXPECT_DOUBLE_EQ(pred.predict(5), 380.0);
    pred.update(5, 480.0);
    EXPECT_DOUBLE_EQ(pred.predict(5), 480.0); // last value wins
    EXPECT_TRUE(pred.known(5));
    EXPECT_EQ(pred.updates(), 2u);
    pred.reset();
    EXPECT_DOUBLE_EQ(pred.predict(5), 120.0);
}

// ---------------------------------------------------------------------------
// TraceSimulator basics
// ---------------------------------------------------------------------------

TEST(TraceSim, CountsHitsAndMisses)
{
    UniformCost cost;
    TraceSimConfig config;
    config.useL1 = false;
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);
    TraceSimulator sim(config, makePolicy(PolicyKind::Lru, l2), cost);
    // Same block twice: one miss, one hit.
    const TraceSimResult res =
        sim.run({rec(0x1000), rec(0x1000)}, 0);
    EXPECT_EQ(res.sampledRefs, 2u);
    EXPECT_EQ(res.l2Misses, 1u);
    EXPECT_EQ(res.l2Hits, 1u);
    EXPECT_DOUBLE_EQ(res.aggregateCost, 1.0);
}

TEST(TraceSim, L1FiltersRepeatedAccesses)
{
    UniformCost cost;
    TraceSimConfig config; // L1 enabled
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);
    TraceSimulator sim(config, makePolicy(PolicyKind::Lru, l2), cost);
    const TraceSimResult res =
        sim.run({rec(0x1000), rec(0x1000), rec(0x1000)}, 0);
    EXPECT_EQ(res.l2Misses, 1u);
    EXPECT_EQ(res.l1Hits, 2u);
    EXPECT_EQ(res.l2Hits, 0u);
}

TEST(TraceSim, RemoteWriteInvalidates)
{
    UniformCost cost;
    TraceSimConfig config;
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);
    TraceSimulator sim(config, makePolicy(PolicyKind::Lru, l2), cost);
    // Load, remote write invalidates, load again -> 2 misses.
    const TraceSimResult res = sim.run(
        {rec(0x1000, 0), rec(0x1000, 3, true), rec(0x1000, 0)}, 0);
    EXPECT_EQ(res.sampledRefs, 2u);
    EXPECT_EQ(res.l2Misses, 2u);
    EXPECT_EQ(res.invalidationsReceived, 1u);
}

TEST(TraceSim, InclusionVictimLeavesL1)
{
    // Fill one L2 set (4 ways) plus one more mapping to the same set;
    // the L2 victim must also leave the L1, so re-accessing it misses
    // in both.
    UniformCost cost;
    TraceSimConfig config;
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);
    TraceSimulator sim(config, makePolicy(PolicyKind::Lru, l2), cost);
    // Blocks mapping to L2 set 0: stride = numSets * blockBytes.
    const Addr stride = l2.numSets() * config.blockBytes;
    std::vector<TraceRecord> records;
    for (Addr i = 0; i < 5; ++i)
        records.push_back(rec(i * stride));
    records.push_back(rec(0)); // block 0 was the LRU victim
    const TraceSimResult res = sim.run(records, 0);
    EXPECT_EQ(res.l2Misses, 6u);
    EXPECT_EQ(res.l1Hits, 0u);
}

TEST(TraceSim, AggregateCostIdentity)
{
    // aggregate cost == sum over misses of the model's cost.
    RandomTwoCost cost(CostRatio::finite(8), 0.4);
    TraceSimConfig config;
    config.useL1 = false;
    config.collectMissProfile = true;
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);
    TraceSimulator sim(config, makePolicy(PolicyKind::Dcl, l2), cost);
    Rng rng(5);
    std::vector<TraceRecord> records;
    for (int i = 0; i < 20000; ++i)
        records.push_back(rec(rng.nextBelow(600) * 64, 0,
                              rng.nextBool(0.2)));
    const TraceSimResult res = sim.run(records, 0);
    double expected = 0.0;
    std::uint64_t misses = 0;
    for (const auto &[block, count] : res.missProfile) {
        expected += static_cast<double>(count) * cost.missCost(block);
        misses += count;
    }
    EXPECT_EQ(misses, res.l2Misses);
    EXPECT_NEAR(res.aggregateCost, expected, 1e-6);
}

TEST(TraceSim, UniformCostNeutralizesCostSensitivity)
{
    // With uniform costs, BCL/DCL/ACL produce exactly the LRU miss
    // count on any trace.
    auto workload = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    UniformCost cost;
    TraceSimConfig config;
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);

    TraceSimulator lru(config, makePolicy(PolicyKind::Lru, l2), cost);
    const std::uint64_t lru_misses =
        lru.run(trace.records, trace.sampledProc).l2Misses;

    for (PolicyKind kind :
         {PolicyKind::Bcl, PolicyKind::Dcl, PolicyKind::Acl}) {
        TraceSimulator sim(config, makePolicy(kind, l2), cost);
        EXPECT_EQ(sim.run(trace.records, trace.sampledProc).l2Misses,
                  lru_misses)
            << policyKindName(kind);
    }
}

// ---------------------------------------------------------------------------
// TraceStudy
// ---------------------------------------------------------------------------

TEST(TraceStudyTest, LruCostMatchesDirectSimulation)
{
    auto workload = makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const TraceStudy study(trace);
    const RandomTwoCost model(CostRatio::finite(4), 0.3);

    // Direct LRU simulation with the same model must agree with the
    // re-weighted profile.
    TraceSimConfig config;
    CacheGeometry l2(config.l2Bytes, config.l2Assoc, config.blockBytes);
    TraceSimulator sim(config, makePolicy(PolicyKind::Lru, l2), model);
    const TraceSimResult res = sim.run(trace.records, trace.sampledProc);
    EXPECT_NEAR(study.lruCost(model), res.aggregateCost, 1e-6);
    EXPECT_EQ(study.lruMissCount(), res.l2Misses);
}

TEST(TraceStudyTest, LruSavingsAgainstItselfIsZero)
{
    auto workload = makeWorkload(BenchmarkId::Ocean, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const TraceStudy study(trace);
    const RandomTwoCost model(CostRatio::finite(8), 0.2);
    EXPECT_NEAR(study.savingsPct(PolicyKind::Lru, model), 0.0, 1e-9);
}

TEST(TraceStudyTest, InfiniteRatioIsUpperEnvelope)
{
    // For DCL, the infinite cost ratio bounds the finite-r savings
    // from above (Section 3.2's theoretical upper bound).
    auto workload = makeWorkload(BenchmarkId::Raytrace,
                                 WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const TraceStudy study(trace);
    const FirstTouchTwoCost inf(CostRatio::makeInfinite(), trace.homeOf,
                                trace.sampledProc);
    const double bound = study.savingsPct(PolicyKind::Dcl, inf);
    for (double r : {8.0, 16.0, 32.0}) {
        const FirstTouchTwoCost model(CostRatio::finite(r), trace.homeOf,
                                      trace.sampledProc);
        EXPECT_LE(study.savingsPct(PolicyKind::Dcl, model),
                  bound + 1.0)
            << "r=" << r;
    }
}

TEST(TraceStudyTest, SavingsGrowWithCostRatio)
{
    auto workload = makeWorkload(BenchmarkId::Raytrace,
                                 WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    const TraceStudy study(trace);
    double prev = -100.0;
    for (double r : {4.0, 8.0, 16.0, 32.0}) {
        const FirstTouchTwoCost model(CostRatio::finite(r), trace.homeOf,
                                      trace.sampledProc);
        const double savings = study.savingsPct(PolicyKind::Dcl, model);
        EXPECT_GE(savings, prev - 0.5) << "r=" << r; // monotone-ish
        prev = savings;
    }
}

TEST(TraceStudyTest, OfflineOptBeatsLruMissCount)
{
    auto workload = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    TraceSimConfig config;
    config.useL1 = false;
    const TraceStudy study(trace, config);
    UniformCost uniform;
    // With uniform cost, savings == miss-count reduction; OPT >= 0.
    const double savings = study.savingsPct(PolicyKind::Opt, uniform);
    EXPECT_GE(savings, 0.0);
}

// ---------------------------------------------------------------------------
// Migration cost model (Section 7 extension)
// ---------------------------------------------------------------------------

TEST(MigrationCostTest, NoMigrationEqualsFirstTouch)
{
    auto workload = makeWorkload(BenchmarkId::Ocean, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    MigrationOutcome outcome;
    const TableCost migrated = buildMigratedCostModel(
        trace, CostRatio::finite(4),
        std::numeric_limits<std::uint64_t>::max(), &outcome);
    const FirstTouchTwoCost first_touch(CostRatio::finite(4),
                                        trace.homeOf, trace.sampledProc);
    EXPECT_EQ(outcome.migratedBlocks, 0u);
    for (const auto &[block, home] : trace.homeOf) {
        (void)home;
        EXPECT_DOUBLE_EQ(migrated.missCost(block),
                         first_touch.missCost(block));
    }
}

TEST(MigrationCostTest, ThresholdZeroMigratesEverything)
{
    auto workload = makeWorkload(BenchmarkId::Ocean, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    MigrationOutcome outcome;
    const TableCost migrated =
        buildMigratedCostModel(trace, CostRatio::finite(4), 0, &outcome);
    EXPECT_EQ(outcome.migratedBlocks, outcome.remoteBlocks);
    EXPECT_DOUBLE_EQ(outcome.residualRemoteFraction, 0.0);
    for (const auto &[block, home] : trace.homeOf) {
        (void)home;
        EXPECT_DOUBLE_EQ(migrated.missCost(block), 1.0);
    }
}

TEST(MigrationCostTest, ResidualFractionShrinksWithThreshold)
{
    auto workload = makeWorkload(BenchmarkId::Barnes, WorkloadScale::Test);
    const SampledTrace trace = buildSampledTrace(*workload, 1);
    double prev = 1.0;
    for (std::uint64_t threshold : {1000000ull, 64ull, 8ull, 1ull}) {
        MigrationOutcome outcome;
        buildMigratedCostModel(trace, CostRatio::finite(4), threshold,
                               &outcome);
        EXPECT_LE(outcome.residualRemoteFraction, prev + 1e-12);
        prev = outcome.residualRemoteFraction;
    }
}

} // namespace
} // namespace csr
