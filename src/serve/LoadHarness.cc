#include "serve/LoadHarness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <thread>
#include <vector>

#include "replay/Format.h"
#include "replay/TraceReader.h"
#include "robust/Errors.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"
#include "util/Random.h"
#include "util/ThreadPool.h"

namespace csr::serve
{

namespace
{

/** Per-worker accumulators, merged after the pool drains. */
struct WorkerOutput
{
    Histogram opLatencyNs;
    Histogram missLatencyNs;
};

/** Full precision, so bit-identical doubles print identically (the
 *  CI determinism check diffs this output across worker counts). */
std::string
numFull(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
numShort(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

std::uint64_t
harnessPayload(std::uint64_t seed, Addr key)
{
    return hashMix64(key + 0x9E3779B97F4A7C15ull * (seed + 1));
}

HarnessConfig
HarnessConfig::fromArgs(const CliArgs &args)
{
    HarnessConfig config;
    config.replayPath = args.get("replay", "");
    // Replay runs default to the whole trace; synthetic runs need an
    // explicit length (with its usual default).
    config.ops = args.getUInt(
        "ops", config.replayPath.empty() ? config.ops : 0);
    config.workers = static_cast<unsigned>(args.getUInt("workers", 1));
    config.targetQps = args.getDouble("qps", 0.0);
    config.seed = args.seed(1);
    config.backendIsReal = args.has("spin");

    const std::string affinity = args.get("affinity", "shard");
    if (affinity == "shard")
        config.shardAffinity = true;
    else if (affinity == "free")
        config.shardAffinity = false;
    else
        throw ConfigError("unknown affinity '" + affinity +
                          "' (valid: shard free)");

    config.mix.dist = parseKeyDist(args.get("workload", "zipf"));
    config.mix.numKeys = args.getUInt("keys", config.mix.numKeys);
    config.mix.zipfTheta =
        args.getDouble("zipf-theta", config.mix.zipfTheta);
    config.mix.hotFraction =
        args.getDouble("hot-frac", config.mix.hotFraction);
    config.mix.hotProbability =
        args.getDouble("hot-prob", config.mix.hotProbability);
    config.mix.writeFraction =
        args.getDouble("write-frac", config.mix.writeFraction);
    config.validate();
    return config;
}

void
HarnessConfig::validate() const
{
    if (targetQps < 0.0)
        throw ConfigError("target QPS must be non-negative");
}

TextTable
HarnessResult::summaryTable(const std::string &title) const
{
    // Deterministic fields only -- nothing wall-clock-derived, so the
    // rendered table is byte-identical across worker counts under
    // shard affinity.
    TextTable table(title);
    table.setHeader({"metric", "value"});
    table.addRow({"ops", TextTable::count(ops)});
    table.addRow({"gets", TextTable::count(totals.gets)});
    table.addRow({"hits", TextTable::count(totals.hits)});
    table.addRow({"misses", TextTable::count(totals.misses)});
    table.addRow({"hit ratio %", TextTable::num(totals.hitRatio() * 100.0)});
    table.addRow({"stores", TextTable::count(totals.stores)});
    table.addRow({"store hits", TextTable::count(totals.storeHits)});
    table.addRow({"evictions", TextTable::count(totals.evictions)});
    table.addRow({"tracked keys", TextTable::count(totals.trackedKeys)});
    table.addRow(
        {"miss cost ms", TextTable::num(totals.missCostNs / 1e6, 3)});
    table.addRow(
        {"store cost ms", TextTable::num(totals.storeCostNs / 1e6, 3)});
    return table;
}

TextTable
HarnessResult::timingTable() const
{
    // A quantity this run never measured prints "n/a", not 0: a
    // server's exit report has no wall clock of its own, and a wire
    // client cannot observe the server's miss cost.
    const auto percentileUs = [](const Histogram &h, double frac) {
        return h.totalCount() == 0
                   ? std::string("n/a")
                   : TextTable::num(h.percentile(frac) / 1e3, 2);
    };
    const bool timed = wallSec > 0.0;
    TextTable table("timing (wall-clock; varies run to run)");
    table.setHeader({"metric", "value"});
    table.addRow({"workers", TextTable::count(workers)});
    table.addRow({"wall s", timed ? TextTable::num(wallSec, 3) : "n/a"});
    table.addRow({"qps", timed ? TextTable::num(qps, 0) : "n/a"});
    table.addRow({"op latency p50 us", percentileUs(opLatencyNs, 0.50)});
    table.addRow({"op latency p90 us", percentileUs(opLatencyNs, 0.90)});
    table.addRow({"op latency p99 us", percentileUs(opLatencyNs, 0.99)});
    table.addRow({"miss cost p99 us", percentileUs(missLatencyNs, 0.99)});
    return table;
}

void
HarnessResult::writeJsonObject(std::ostream &os,
                               const std::string &policy,
                               const std::string &workload,
                               int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string in = pad + "  ";
    const std::string in2 = in + "  ";
    const bool timed = wallSec > 0.0;
    const auto timedNum = [timed](double v) {
        return timed ? numShort(v) : std::string("null");
    };
    const auto percentileNum = [](const Histogram &h, double frac) {
        return h.totalCount() == 0 ? std::string("null")
                                   : numShort(h.percentile(frac));
    };
    os << "{\n"
       << in << "\"policy\": \"" << policy << "\",\n"
       << in << "\"workload\": \"" << workload << "\",\n"
       << in << "\"ops\": " << ops << ",\n"
       << in << "\"workers\": " << workers << ",\n"
       << in << "\"deterministic\": {\n"
       << in2 << "\"gets\": " << totals.gets << ",\n"
       << in2 << "\"hits\": " << totals.hits << ",\n"
       << in2 << "\"misses\": " << totals.misses << ",\n"
       << in2 << "\"hitRatio\": " << numFull(totals.hitRatio()) << ",\n"
       << in2 << "\"stores\": " << totals.stores << ",\n"
       << in2 << "\"storeHits\": " << totals.storeHits << ",\n"
       << in2 << "\"evictions\": " << totals.evictions << ",\n"
       << in2 << "\"trackedKeys\": " << totals.trackedKeys << ",\n"
       << in2 << "\"missCostNs\": " << numFull(totals.missCostNs) << ",\n"
       << in2 << "\"storeCostNs\": " << numFull(totals.storeCostNs) << "\n"
       << in << "},\n"
       // Deterministic under --hitpath locked (all zero except
       // backendFetches == misses); scheduling-dependent under
       // seqlock, hence a block of its own.
       << in << "\"concurrency\": {\n"
       << in2 << "\"seqlockHits\": " << totals.seqlockHits << ",\n"
       << in2 << "\"seqlockRetries\": " << totals.seqlockRetries << ",\n"
       << in2 << "\"lockedFallbacks\": " << totals.lockedFallbacks << ",\n"
       << in2 << "\"logFullFallbacks\": " << totals.logFullFallbacks << ",\n"
       << in2 << "\"backendFetches\": " << totals.backendFetches << ",\n"
       << in2 << "\"coalescedMisses\": " << totals.coalescedMisses << ",\n"
       // Robustness counters: all zero on a healthy, unshed run with
       // the backend behaving, so the deterministic baselines carry
       // them as zeroes.
       << in2 << "\"shedOps\": " << totals.shedOps << ",\n"
       << in2 << "\"breakerOpens\": " << totals.breakerOpens << ",\n"
       << in2 << "\"breakerFastFails\": " << totals.breakerFastFails << ",\n"
       << in2 << "\"staleServes\": " << totals.staleServes << "\n"
       << in << "},\n"
       // Unmeasured quantities are null, the "n/a" of timingTable().
       << in << "\"timing\": {\n"
       << in2 << "\"wallSec\": " << timedNum(wallSec) << ",\n"
       << in2 << "\"qps\": " << timedNum(qps) << ",\n"
       << in2 << "\"opLatencyNs\": {\"p50\": "
       << percentileNum(opLatencyNs, 0.50)
       << ", \"p90\": " << percentileNum(opLatencyNs, 0.90)
       << ", \"p99\": " << percentileNum(opLatencyNs, 0.99) << "},\n"
       << in2 << "\"missLatencyNs\": {\"p50\": "
       << percentileNum(missLatencyNs, 0.50)
       << ", \"p99\": " << percentileNum(missLatencyNs, 0.99)
       << "}\n"
       << in << "}\n"
       << pad << "}";
}

void
HarnessResult::exportMetrics(MetricRegistry &registry) const
{
    registry.setCounter("serve.harness.ops", ops);
    registry.setCounter("serve.harness.workers", workers);
    registry.recordTimerSec("serve.harness.wall", wallSec);
    registry.stat("serve.harness.qps").add(qps);
    registry.mergeHistogram("serve.op_latency_ns", opLatencyNs);
    registry.mergeHistogram("serve.miss_latency_ns", missLatencyNs);
}

OpPlan
planOps(const HarnessConfig &config, unsigned parts,
        const std::function<std::size_t(std::uint64_t, const Op &)>
            &place)
{
    OpPlan plan;
    plan.parts.resize(parts);
    const auto reserve = [&] {
        for (auto &ops : plan.parts)
            ops.reserve(static_cast<std::size_t>(plan.ops / parts + 1));
    };
    if (config.replayPath.empty()) {
        CSR_TRACE_SPAN("serve", "harness.generate");
        plan.ops = config.ops;
        reserve();
        KeyGenerator gen(config.mix, config.seed);
        for (std::uint64_t i = 0; i < plan.ops; ++i) {
            const Op op = gen.next();
            plan.parts[place(i, op)].push_back(op);
        }
        return plan;
    }
    CSR_TRACE_SPAN("serve", "harness.load_trace");
    replay::TraceReader reader(config.replayPath);
    plan.ops = config.ops ? std::min(config.ops, reader.recordCount())
                          : reader.recordCount();
    reserve();
    replay::ReplayBlock block;
    std::uint64_t i = 0;
    for (std::uint64_t b = 0; b < reader.blockCount() && i < plan.ops;
         ++b) {
        reader.readBlock(b, block);
        for (std::size_t r = 0; r < block.size() && i < plan.ops;
             ++r, ++i) {
            Op op;
            op.key = block.key[r];
            op.write = block.op[r] ==
                       static_cast<std::uint8_t>(replay::TraceOp::Set);
            op.del = block.op[r] ==
                     static_cast<std::uint8_t>(replay::TraceOp::Del);
            plan.parts[place(i, op)].push_back(op);
        }
    }
    return plan;
}

HarnessResult
runLoad(CacheService &service, const HarnessConfig &config)
{
    config.validate();

    const unsigned workers =
        config.workers ? config.workers : ThreadPool::defaultThreads();

    // With shard affinity every op lands with the worker that owns
    // its shard, so per-shard op order is the global stream order for
    // any worker count; the strided split instead makes workers
    // contend on the shard locks.
    const OpPlan plan = planOps(
        config, workers, [&](std::uint64_t i, const Op &op) {
            return config.shardAffinity
                       ? service.shardOf(op.key) % workers
                       : static_cast<std::size_t>(i % workers);
        });
    std::vector<WorkerOutput> outputs(workers);

    // Closed-loop pacing: each worker owns a 1/workers slice of the
    // aggregate target rate and spaces its ops on a fixed schedule
    // anchored at its own start (no coordination, no drift).
    const double interval_sec =
        config.targetQps > 0.0
            ? static_cast<double>(workers) / config.targetQps
            : 0.0;

    const auto worker_fn = [&](std::size_t w) {
        CSR_TRACE_SPAN_DYN("serve", "worker " + std::to_string(w));
        WorkerOutput &out = outputs[w];
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t n = 0;
        for (const Op &op : plan.parts[w]) {
            if (interval_sec > 0.0) {
                const auto deadline =
                    start + std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(n) *
                                    interval_sec));
                std::this_thread::sleep_until(deadline);
            }
            const auto t0 = std::chrono::steady_clock::now();
            ServeOpResult result;
            if (op.del)
                service.del(op.key); // invalidation; no backend
            else
                result = op.write
                             ? service.put(op.key,
                                           harnessPayload(config.seed,
                                                          op.key))
                             : service.get(op.key);
            const auto real_ns = static_cast<std::uint64_t>(
                std::chrono::nanoseconds(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            const auto backend_ns =
                static_cast<std::uint64_t>(std::llround(result.backendNs));
            // Simulated backend latency is modelled, not slept, so it
            // is added on top of the measured in-cache time -- unless
            // the backend spins, in which case it is already in there.
            out.opLatencyNs.add(real_ns +
                                (config.backendIsReal ? 0 : backend_ns));
            if (!op.write && !op.del && !result.hit)
                out.missLatencyNs.add(backend_ns);
            ++n;
        }
    };

    WallTimer wall;
    if (workers == 1) {
        worker_fn(0);
    } else {
        ThreadPool pool(workers);
        parallelFor(pool, workers, worker_fn);
    }

    HarnessResult result;
    result.wallSec = wall.elapsedSec();
    result.ops = plan.ops;
    result.workers = workers;
    result.qps = result.wallSec > 0.0
                     ? static_cast<double>(plan.ops) / result.wallSec
                     : 0.0;
    for (const WorkerOutput &out : outputs) {
        result.opLatencyNs.merge(out.opLatencyNs);
        result.missLatencyNs.merge(out.missLatencyNs);
    }
    result.totals = service.totals();
    return result;
}

} // namespace csr::serve
