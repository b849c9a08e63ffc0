/**
 * @file
 * Trace-replay throughput: decode + replay of a recorded .csrt
 * stream straight through CacheModel, per policy.
 *
 * The fixture trace is recorded in-process from the deterministic
 * Zipfian KeyGenerator (the same stream `csrtrace record` captures),
 * so the bench needs no external file and the deterministic counters
 * -- hits, misses, evictions, aggregate miss cost -- are pure
 * functions of (seed, scale, policy) that check_bench.py gates
 * against bench/baselines/BENCH_replay.json.  Throughput (ops/min,
 * in the "timing" block CI skips) is the headline number: the
 * acceptance floor for the replay engine is 100M ops/min in Release,
 * asserted in CI via --min-ops-per-min.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "replay/Replayer.h"
#include "replay/TraceWriter.h"
#include "serve/KeyGenerator.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::replay;

namespace
{

std::uint64_t
opsForScale(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Test:
        return 500'000;
      case WorkloadScale::Small:
        return 5'000'000;
      case WorkloadScale::Full:
        return 20'000'000;
    }
    return 5'000'000;
}

/** Record the fixture trace: Zipfian keys over a keyspace well above
 *  cache capacity, 20% writes, 1us spacing.  15% of keys live on a
 *  16x slower tier (same shape as SyntheticBackend's bimodal
 *  latency), carried as per-record cost hints -- with uniform costs
 *  the cost-sensitive policies degenerate to LRU by design and the
 *  bench would measure nothing but decode speed. */
std::string
recordFixture(std::uint64_t ops, std::uint64_t seed)
{
    serve::WorkloadMix mix;
    mix.numKeys = 1 << 18;
    mix.writeFraction = 0.2;
    serve::KeyGenerator gen(mix, seed);

    const std::string path = "bench_replay_fixture.csrt";
    TraceWriter writer(path);
    for (std::uint64_t i = 0; i < ops; ++i) {
        const serve::Op op = gen.next();
        ReplayRecord rec;
        rec.tsNs = i * 1000;
        rec.key = op.key;
        rec.op = op.write ? TraceOp::Set : TraceOp::Get;
        rec.valueSize = 8;
        const bool slow = hashMix64(op.key ^ seed) % 100 < 15;
        rec.costHint = slow ? 32'000 : 2'000;
        writer.append(rec);
    }
    writer.finish();
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(
        argc, argv, {"ops", "cache-bytes", "min-ops-per-min"});
    const WorkloadScale scale = parseScale(args.get("scale", "small"));
    printBanner(std::cout,
                "Trace replay: decode+replay throughput by policy "
                "(recorded Zipfian .csrt)",
                scale);

    const std::uint64_t ops =
        args.getUInt("ops", opsForScale(scale));
    const std::uint64_t seed = args.seed(7);
    const double min_ops_per_min =
        args.getDouble("min-ops-per-min", 0.0);

    std::cerr << "### recording " << ops << "-op fixture trace...\n";
    const std::string path = recordFixture(ops, seed);

    ReplayConfig config;
    config.path = path;
    config.cacheBytes = args.getUInt("cache-bytes", 1 << 20);
    config.jobs = args.jobs(); // 0 = one per hardware thread

    const std::vector<PolicyKind> policies = {
        PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
        PolicyKind::Dcl, PolicyKind::Acl,
    };

    TextTable table("replay of " + std::to_string(ops) +
                    " ops, cache " +
                    std::to_string(config.cacheBytes / 1024) + " KiB");
    table.setHeader({"Policy", "Hit %", "Misses", "Miss cost (ms)",
                     "Evictions", "Mops/min"});

    struct PolicyRun
    {
        std::string name;
        ReplayResult result;
    };
    std::vector<PolicyRun> runs;
    bool floor_ok = true;

    for (PolicyKind kind : policies) {
        config.policy = kind;
        config.policyParams.seed = seed;
        const ReplayResult result = replayTrace(config);
        const std::string name = policyKindName(kind);
        table.addRow({
            name,
            TextTable::num(result.totals.hitRatio() * 100.0),
            TextTable::count(result.totals.misses),
            TextTable::num(result.totals.missCostNs / 1e6, 3),
            TextTable::count(result.totals.evictions),
            TextTable::num(result.opsPerMin() / 1e6, 1),
        });
        if (min_ops_per_min > 0.0 &&
            result.opsPerMin() < min_ops_per_min) {
            std::cerr << "### FAIL: " << name << " replayed at "
                      << TextTable::num(result.opsPerMin(), 0)
                      << " ops/min, below the --min-ops-per-min "
                      << TextTable::num(min_ops_per_min, 0)
                      << " floor\n";
            floor_ok = false;
        }
        runs.push_back({name, result});
    }
    table.print(std::cout);

    const std::string json_path =
        args.has("json") ? args.jsonPath() : "BENCH_replay.json";
    std::ofstream os(json_path);
    if (os) {
        os << "{\n  \"ops\": " << ops << ",\n  \"cacheBytes\": "
           << config.cacheBytes << ",\n  \"policies\": [\n";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            os << "    ";
            runs[i].result.writeJsonObject(os, runs[i].name,
                                           /*indent=*/4);
            os << (i + 1 < runs.size() ? ",\n" : "\n");
        }
        os << "  ]\n}\n";
        std::cerr << "### wrote JSON to " << json_path << "\n";
    } else {
        std::cerr << "### cannot write " << json_path << "\n";
    }

    if (!args.metricsPath().empty()) {
        MetricRegistry metrics;
        for (const PolicyRun &run : runs) {
            metrics.incCounter("replay.misses." + run.name,
                               run.result.totals.misses);
            metrics.stat("replay.ops_per_min." + run.name)
                .add(run.result.opsPerMin());
        }
        bench::maybeWriteMetrics(metrics, args.metricsPath());
    }

    std::remove(path.c_str());
    return floor_ok ? 0 : 1;
}
