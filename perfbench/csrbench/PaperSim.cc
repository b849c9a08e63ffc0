/**
 * @file
 * paper-sim: the paper's own experiments.  Set-up generates the four
 * SPLASH-2-like sampled traces; each round then runs every
 * (benchmark, cost mapping, policy) cell through TraceSimulator and a
 * CC-NUMA LRU/DCL pair through NumaSystem.  Every cell starts with
 * empty caches, as in the paper.  No locks, no sockets.
 */

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>

#include "Workloads.h"
#include "cache/PolicyFactory.h"
#include "cost/StaticCostModels.h"
#include "numa/NumaSystem.h"
#include "robust/Errors.h"
#include "sim/TraceSimulator.h"
#include "trace/SampledTrace.h"
#include "trace/WorkloadFactory.h"
#include "util/Random.h"

namespace perfbench
{

using namespace csr;

namespace
{

/** Sampled-processor references per processor of the trace study:
 *  between the library's "test" and "small" presets, so one round of
 *  40 cells takes about a second. */
constexpr std::uint64_t kSimRefsPerProc = 150'000;
/** References per processor of the NUMA-sized programs. */
constexpr std::uint64_t kNumaRefsPerProc = 6'000;
/** Cost ratio of both static mappings, and the random mapping's
 *  high-cost fraction (Figure 3's range). */
constexpr double kCostRatio = 8.0;
constexpr double kHaf = 0.3;

const std::vector<BenchmarkId> kNumaBenchmarks = {BenchmarkId::Barnes,
                                                  BenchmarkId::Ocean};
/** Table 5, DCL at 500 MHz, execution-time reduction over LRU (%).
 *  The traces here are a synthetic stand-in, not validated against
 *  RSIM, so these are printed for reference only. */
const std::map<BenchmarkId, double> kPaperDclReductionPct = {
    {BenchmarkId::Barnes, 16.9},
    {BenchmarkId::Lu, 3.5},
    {BenchmarkId::Ocean, 8.3},
    {BenchmarkId::Raytrace, 7.2},
};

const std::vector<PolicyKind> kPolicies = {
    PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
    PolicyKind::Dcl, PolicyKind::Acl};

struct Inputs
{
    std::vector<SampledTrace> traces;
    std::vector<std::unique_ptr<SyntheticWorkload>> numaPrograms;
    std::uint64_t costSeed = 0;
};

std::uint64_t
workloadSeed(std::uint64_t seed)
{
    // WorkloadConfig treats 0 as "the benchmark's fixed seed".
    return hashMix64(seed ^ 0x5EED5EEDull) | 1;
}

Inputs
makeInputs(std::uint64_t seed, double *gen_sec)
{
    Inputs in;
    const auto t0 = Clock::now();
    for (BenchmarkId id : paperBenchmarks()) {
        WorkloadConfig config;
        config.name = benchmarkName(id);
        config.seed = workloadSeed(seed);
        config.targetRefsPerProc = kSimRefsPerProc;
        const auto program = makeWorkload(config);
        in.traces.push_back(buildSampledTrace(
            *program, /*sampled=*/1, /*block_bytes=*/64, /*burst=*/64,
            hashMix64(seed + 7)));
    }
    *gen_sec = secondsBetween(t0, Clock::now());
    for (BenchmarkId id : kNumaBenchmarks) {
        WorkloadConfig config;
        config.name = benchmarkName(id);
        config.seed = workloadSeed(seed);
        config.numaSized = true;
        config.targetRefsPerProc = kNumaRefsPerProc;
        in.numaPrograms.push_back(makeWorkload(config));
    }
    in.costSeed = hashMix64(seed + 0x51AB);
    return in;
}

/** One round's results. */
struct Round
{
    double simSec = 0.0;
    double numaSec = 0.0;
    double simCpuNs = 0.0;
    std::uint64_t simRecords = 0;
    std::uint64_t numaOps = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t numaMisses = 0;
    double numaMissLatencyNs = 0.0; ///< sum over misses
    std::map<std::string, double> simSecByPolicy;
    std::map<std::string, std::uint64_t> policyCounters;
    /** policy cost / LRU cost, per (benchmark, mapping, policy). */
    std::vector<double> costRatios;
    /** DCL / LRU execution time, per NUMA benchmark. */
    std::vector<double> execRatios;
    std::string counters;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
};

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out += buf;
}

void
runSimCells(const Inputs &in, SpanRecorder &spans, Round &r)
{
    const TraceSimConfig config; // the paper's 4 KB L1 + 16 KB 4-way L2
    const CacheGeometry l2(config.l2Bytes, config.l2Assoc,
                           config.blockBytes);
    const pid_t self = currentTid();
    for (const SampledTrace &trace : in.traces) {
        const FirstTouchTwoCost first_touch(
            CostRatio::finite(kCostRatio), trace.homeOf,
            trace.sampledProc);
        const RandomTwoCost random(CostRatio::finite(kCostRatio), kHaf,
                                   in.costSeed);
        const std::pair<const char *, const CostModel *> mappings[] = {
            {"first-touch", &first_touch}, {"random", &random}};
        for (const auto &[map_name, model] : mappings) {
            double lru_cost = 0.0;
            for (PolicyKind kind : kPolicies) {
                const std::string policy = policyKindName(kind);
                ++r.attempted;
                try {
                    const ThreadCpu c0 = readThreadCpu(self);
                    const auto t0 = Clock::now();
                    TraceSimResult res;
                    {
                        Span span(spans, "sim.cell");
                        TraceSimulator sim(config, makePolicy(kind, l2),
                                           *model);
                        res = sim.run(trace.records, trace.sampledProc);
                    }
                    const double sec = secondsBetween(t0, Clock::now());
                    r.simCpuNs += static_cast<double>(
                        readThreadCpu(self).cpuNs - c0.cpuNs);
                    r.simSec += sec;
                    r.simSecByPolicy[policy] += sec;
                    r.simRecords += trace.records.size();
                    r.l2Hits += res.l2Hits;
                    r.l2Misses += res.l2Misses;
                    for (const auto &[name, v] : res.policyStats.all())
                        r.policyCounters[name] += v;
                    if (kind == PolicyKind::Lru)
                        lru_cost = res.aggregateCost;
                    else if (lru_cost > 0.0)
                        r.costRatios.push_back(res.aggregateCost /
                                               lru_cost);
                    appendf(r.counters,
                            "sim %s %s %s cost=%.17g misses=%" PRIu64
                            " refs=%" PRIu64 "\n",
                            trace.benchmark.c_str(), map_name,
                            policy.c_str(), res.aggregateCost,
                            res.l2Misses, res.sampledRefs);
                } catch (const csr::Error &e) {
                    r.failures.push_back("sim " + trace.benchmark + " " +
                                         map_name + " " + policy + ": " +
                                         e.what());
                }
            }
        }
    }
}

void
runNumaPairs(const Inputs &in, SpanRecorder &spans, Round &r)
{
    for (std::size_t b = 0; b < in.numaPrograms.size(); ++b) {
        const SyntheticWorkload &program = *in.numaPrograms[b];
        double lru_ns = 0.0;
        for (PolicyKind kind : {PolicyKind::Lru, PolicyKind::Dcl}) {
            ++r.attempted;
            try {
                NumaConfig config; // Table 4, 500 MHz
                config.policy = kind;
                const auto t0 = Clock::now();
                NumaResult res;
                {
                    Span span(spans, "numa.run");
                    NumaSystem system(config, program);
                    res = system.run();
                }
                r.numaSec += secondsBetween(t0, Clock::now());
                r.numaOps += res.totalOps;
                r.numaMisses += res.totalMisses;
                r.numaMissLatencyNs += res.avgMissLatencyNs *
                                       static_cast<double>(res.totalMisses);
                const double exec = static_cast<double>(res.execTimeNs);
                if (kind == PolicyKind::Lru)
                    lru_ns = exec;
                else if (lru_ns > 0.0)
                    r.execRatios.push_back(exec / lru_ns);
                appendf(r.counters,
                        "numa %s %s exec_ns=%" PRIu64 " ops=%" PRIu64
                        " misses=%" PRIu64 "\n",
                        program.name().c_str(),
                        policyKindName(kind).c_str(),
                        static_cast<std::uint64_t>(res.execTimeNs),
                        res.totalOps, res.totalMisses);
            } catch (const csr::Error &e) {
                r.failures.push_back("numa " + program.name() + " " +
                                     policyKindName(kind) + ": " +
                                     e.what());
            }
        }
    }
}

/** Rounds for @p seconds (at least one); the first round's counters
 *  are the reference every later round must reproduce. */
std::vector<Round>
measure(const Inputs &in, double seconds, SpanRecorder &spans,
        Outcome &out)
{
    std::vector<Round> rounds;
    const auto start = Clock::now();
    do {
        Span span(spans, "paper-sim.round");
        Round r;
        runSimCells(in, spans, r);
        runNumaPairs(in, spans, r);
        out.attempted += r.attempted;
        for (const std::string &f : r.failures)
            out.fail(f);
        if (!rounds.empty() && r.counters != rounds.front().counters)
            out.fail("paper-sim round " + std::to_string(rounds.size()) +
                     " counters differ from round 0");
        rounds.push_back(std::move(r));
    } while (secondsBetween(start, Clock::now()) < seconds);
    return rounds;
}

struct Rates
{
    std::optional<double> simRefsPerSec;
    std::optional<double> numaOpsPerSec;
    std::optional<double> cpuUsPerRef;
};

/** Rates over a whole run: total work / total time.  Per-round rates
 *  on a shared host are bimodal (a core is either contended or not),
 *  so a median of rounds flips between modes from run to run; the
 *  aggregate moves only with the share of time in each. */
Rates
rates(const std::vector<Round> &rounds)
{
    double records = 0, sim_sec = 0, ops = 0, numa_sec = 0, cpu_ns = 0;
    for (const Round &r : rounds) {
        records += static_cast<double>(r.simRecords);
        sim_sec += r.simSec;
        ops += static_cast<double>(r.numaOps);
        numa_sec += r.numaSec;
        cpu_ns += r.simCpuNs;
    }
    return {ratio(records, sim_sec), ratio(ops, numa_sec),
            ratio(cpu_ns / 1e3, records)};
}

} // namespace

void
runPaperSim(const RunArgs &args, SpanRecorder &spans, Outcome &out)
{
    Report &rep = out.report;
    std::vector<double> setup_sec, gen_sec;
    Inputs in;
    for (int i = 0; i < (args.countersOnly ? 1 : kSetupRepeats); ++i) {
        const auto t0 = Clock::now();
        double gen = 0.0;
        in = Inputs{}; // one set of inputs alive at a time
        in = makeInputs(args.seed, &gen);
        setup_sec.push_back(secondsBetween(t0, Clock::now()));
        gen_sec.push_back(gen);
    }
    std::uint64_t records = 0;
    for (const SampledTrace &t : in.traces)
        records += t.records.size();

    if (args.countersOnly) {
        SpanRecorder off(false);
        const std::vector<Round> rounds = measure(in, 0.0, off, out);
        out.counters = rounds.front().counters;
        return;
    }

    // The end-to-end figures come from an untraced pass; a traced run
    // spends half its time untraced (for the overhead) and half
    // traced (for the per-layer numbers).
    SpanRecorder off(false);
    const double untraced_sec = args.trace ? args.seconds / 2 : args.seconds;
    const std::vector<Round> rounds = measure(in, untraced_sec, off, out);
    const Round &first = rounds.front();
    out.counters = first.counters;
    const Rates e2e = rates(rounds);

    const std::optional<double> cost_ratio = geomean(first.costRatios);
    const std::optional<double> exec_ratio = geomean(first.execRatios);

    rep.set("setup_s", "s", median(setup_sec));
    rep.set("sim_refs_per_s", "1/s", e2e.simRefsPerSec);
    rep.set("numa_ops_per_s", "1/s", e2e.numaOpsPerSec);
    rep.set("numa_exec_ratio", "ratio", exec_ratio);
    rep.set("miss_cost_ratio", "ratio", cost_ratio);
    rep.set("ops_per_s", "1/s", e2e.simRefsPerSec);
    rep.set("aux_ops_per_s", "1/s", e2e.numaOpsPerSec);
    rep.set("cpu_us_per_op", "us", e2e.cpuUsPerRef);

    std::vector<double> paper_ratios;
    std::string paper_cells;
    for (BenchmarkId id : kNumaBenchmarks) {
        paper_ratios.push_back(1.0 - kPaperDclReductionPct.at(id) / 100.0);
        appendf(paper_cells, " %s %.1f%%", benchmarkName(id).c_str(),
                kPaperDclReductionPct.at(id));
    }
    std::string note;
    appendf(note,
            "paper reference: numa_exec_ratio %.4f (Table 5, DCL at 500 "
            "MHz, reduction over LRU:%s); measured %.4f on synthetic "
            "stand-in traces, not validated against RSIM",
            *geomean(paper_ratios), paper_cells.c_str(),
            exec_ratio.value_or(0.0));
    out.notes.push_back(note);
    out.notes.push_back(
        "paper reference: miss_cost_ratio has no single value in the "
        "paper (Table 2 and Figure 3 savings vary with benchmark, "
        "mapping, ratio and HAF); measured on synthetic stand-in traces");

    if (!args.trace)
        return;

    const std::vector<Round> traced = measure(in, args.seconds / 2,
                                              spans, out);
    const Round &t = traced.front();
    const Rates traced_rates = rates(traced);
    rep.set("trace.gen_s", "s", median(gen_sec));
    rep.set("trace.records", "count", static_cast<double>(records));
    const double sim_sec = spans.totalSeconds("sim.cell");
    double traced_records = 0.0, traced_ops = 0.0;
    for (const Round &r : traced) {
        traced_records += static_cast<double>(r.simRecords);
        traced_ops += static_cast<double>(r.numaOps);
    }
    rep.set("sim.ns_per_ref", "ns", sim_sec * 1e9 / traced_records);
    rep.set("sim.l2_miss_rate", "ratio",
            static_cast<double>(t.l2Misses) /
                static_cast<double>(t.l2Hits + t.l2Misses));
    rep.set("numa.ns_per_op", "ns",
            spans.totalSeconds("numa.run") * 1e9 / traced_ops);
    rep.set("numa.misses", "count", static_cast<double>(t.numaMisses));
    rep.set("numa.avg_miss_latency_ns", "ns",
            t.numaMisses ? std::optional<double>(
                               t.numaMissLatencyNs /
                               static_cast<double>(t.numaMisses))
                         : std::nullopt);
    reportPolicyCounters(rep, t.policyCounters);
    // Per-policy cost of the cache+policy layer: this workload's
    // records are already in memory, so there is no decode to
    // subtract.
    for (PolicyKind kind : kPolicies) {
        const std::string policy = policyKindName(kind);
        double sec = 0.0, recs = 0.0;
        for (const Round &r : traced) {
            sec += r.simSecByPolicy.at(policy);
            recs += static_cast<double>(r.simRecords) / kPolicies.size();
        }
        rep.set("cache.ns_per_op." + metricName(policy), "ns",
                sec * 1e9 / recs);
    }
    rep.set("self_s.paper-sim.round", "s",
            spans.selfSeconds("paper-sim.round"));
    if (e2e.simRefsPerSec && traced_rates.simRefsPerSec)
        rep.set("trace.overhead_frac", "ratio",
                1.0 - *traced_rates.simRefsPerSec / *e2e.simRefsPerSec);
}

} // namespace perfbench
