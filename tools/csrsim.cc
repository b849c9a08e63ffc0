/**
 * @file
 * csrsim -- command-line driver for the csr simulators.
 *
 * Five modes; `csrsim --help` lists every mode's flags:
 *
 *   csrsim trace --benchmark barnes --policy dcl [--ratio 8 ...]
 *       Replays a sampled-processor trace (Section 3 study) and
 *       prints hits/misses, aggregate cost and savings over LRU.
 *
 *   csrsim numa --benchmark raytrace --policy dcl [--clock 1000 ...]
 *       Runs the 16-node CC-NUMA machine (Section 4 study) under LRU
 *       and the chosen policy and prints the execution-time delta.
 *       A hung protocol is converted into SimulationStallError (exit
 *       code 5) carrying a per-node diagnostic snapshot instead of
 *       spinning forever; --max-cycles adds a hard simulated-time
 *       budget on top of the stall watchdog.
 *
 *   csrsim replay --file trace.csrt --policy acl [--jobs N ...]
 *       Replays a recorded KV trace (.csrt, see csrtrace) straight
 *       through CacheModel under any online policy.  The summary on
 *       stdout is byte-identical for every --jobs value (the replay
 *       partitions by cache set, see replay/Replayer.h); timing goes
 *       to stderr.
 *
 *   csrsim sweep --grid table1|fig3|ablation-*|"key=v1,v2;..." [...]
 *       Expands a declarative policy x workload x cost grid and runs
 *       every cell in parallel on a bounded thread pool (SweepRunner).
 *       Per-cell results go to stdout in stable grid order -- they are
 *       bit-identical for any --jobs value -- and the timing summary
 *       goes to stderr so outputs stay diffable.  A failing cell is
 *       retried (--retries) and then recorded as a failure while the
 *       rest of the grid completes; a sweep with failures prints a
 *       failure appendix and exits with code 10.  --checkpoint
 *       journals finished cells to an append-only JSONL file;
 *       --resume restores them on restart, and a killed-and-resumed
 *       sweep's grid output is byte-identical to an uninterrupted run
 *       (pass --json-timing 0 to make the JSON byte-stable too).
 *       --fault-rate P fails each cell attempt with probability P
 *       (InjectedFaultError), decided purely from --fault-seed, the
 *       cell and the attempt number, so the same cells fail at any
 *       --jobs and a retry draws afresh.
 *
 *   csrsim reproduce --name table1|fig3|table2|...|all [--scale test]
 *       Regenerates the paper's tables and figures from the records
 *       of sim/Reproduction.h: each record's tables go to stdout
 *       (byte-identical for any --jobs value), and each claim's
 *       verdict (holds / FAILS) plus the sweep timing to stderr.  A
 *       failing claim is a finding, not an error: the exit code is 0
 *       unless the run itself fails.  --metrics writes Table 5's
 *       miss-latency histograms.
 *
 * Every mode rejects a flag it does not know (exit 2, naming the
 * valid flags), and also accepts the telemetry flags:
 *
 *   --trace FILE    record the run and export Chrome trace-event JSON
 *                   (open in https://ui.perfetto.dev);
 *   --metrics FILE  dump the run's unified metrics (counters, stats,
 *                   histograms) as JSON.
 *
 * Output paths (--trace/--metrics/--json/--checkpoint/--save-trace)
 * are probed for writability *before* the run starts, so a typo'd
 * directory fails in milliseconds rather than after an hour of
 * simulation.
 *
 * Errors map to distinct exit codes (see robust/Errors.h): 0 ok,
 * 2 ConfigError, 3 TraceFormatError, 4 CheckpointError, 5 stall,
 * 6 geometry, 7 invariant violation, 8 injected fault, 10 sweep
 * completed with failed cells.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cache/CacheGeometry.h"
#include "cost/StaticCostModels.h"
#include "replay/Replayer.h"
#include "numa/NumaSystem.h"
#include "robust/Errors.h"
#include "sim/Reproduction.h"
#include "sim/SweepRunner.h"
#include "sim/TraceStudy.h"
#include "telemetry/MetricRegistry.h"
#include "telemetry/Tracer.h"
#include "trace/TraceIO.h"
#include "trace/WorkloadFactory.h"
#include "util/CliArgs.h"
#include "util/Logging.h"
#include "util/Table.h"

using namespace csr;

namespace
{

/** Invariant-check cadence installed by --validate (sampled refs for
 *  the trace study, events for the NUMA run). */
constexpr std::uint64_t kValidateCadence = 4096;

/** The flags each mode reads, besides the common ones CliArgs always
 *  accepts (--json --jobs --seed --trace --metrics).  Anything else
 *  is a typo and exits 2 before the run starts. */
const std::map<std::string, std::vector<std::string>> kModeFlags = {
    {"trace",
     {"benchmark", "policy", "mapping", "ratio", "haf", "scale", "assoc",
      "l2", "alias-bits", "depreciation", "procs", "refs", "validate",
      "save-trace", "load-trace"}},
    {"numa",
     {"benchmark", "policy", "clock", "hints", "scale", "alias-bits",
      "store-weight", "max-cycles", "stall-window", "procs", "refs",
      "validate"}},
    {"replay",
     {"file", "policy", "cache-bytes", "assoc", "block-bytes", "max-ops",
      "default-cost", "read-mode", "alias-bits", "depreciation"}},
    {"sweep",
     {"grid", "scale", "csv", "json-timing", "checkpoint", "resume",
      "retries", "validate", "fault-rate", "fault-seed"}},
    {"reproduce", {"name", "scale"}},
};

PolicyKind
policyFromArgs(const CliArgs &args, const std::string &fallback)
{
    const std::string name = args.get("policy", fallback);
    if (auto kind = parsePolicyKind(name))
        return *kind;
    throw ConfigError("unknown policy '" + name + "' (valid: " +
                      policyNamesJoined(" ") + ")");
}

/**
 * Fail fast on an unwritable output path: append-open it (touching
 * but not truncating an existing file) and remove it again if the
 * probe itself created it.  A typo'd --metrics directory should
 * abort the run before the simulation, not after.
 */
void
ensureWritable(const std::string &path, const std::string &flag)
{
    if (path.empty())
        return;
    std::FILE *pre = std::fopen(path.c_str(), "rb");
    const bool existed = pre != nullptr;
    if (pre)
        std::fclose(pre);
    std::FILE *f = std::fopen(path.c_str(), "ab");
    if (!f)
        throw ConfigError("--" + flag + ": cannot open '" + path +
                          "' for writing");
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
}

/** Probe every output path a mode may write, before it runs. */
void
checkOutputPaths(const CliArgs &args)
{
    ensureWritable(args.tracePath(), "trace");
    ensureWritable(args.metricsPath(), "metrics");
    ensureWritable(args.jsonPath(), "json");
    ensureWritable(args.get("checkpoint", ""), "checkpoint");
    ensureWritable(args.get("save-trace", ""), "save-trace");
}

/**
 * RAII recording session for --trace: enables the tracer for the
 * scope and exports the Chrome trace JSON on exit.  A default
 * (pathless) session records nothing.
 */
class TraceSession
{
  public:
    explicit TraceSession(const std::string &path) : path_(path)
    {
        if (path_.empty())
            return;
        telemetry::Tracer::instance().clear();
        telemetry::setTracingEnabled(true);
    }

    ~TraceSession()
    {
        if (path_.empty())
            return;
        telemetry::setTracingEnabled(false);
        telemetry::Tracer::instance().writeChromeTrace(path_);
        inform("wrote %zu trace events to %s",
               telemetry::Tracer::instance().eventCount(), path_.c_str());
    }

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

  private:
    std::string path_;
};

void
writeMetricsIfRequested(const CliArgs &args, const MetricRegistry &registry)
{
    const std::string path = args.metricsPath();
    if (path.empty())
        return;
    registry.writeJson(path);
    inform("wrote metrics to %s", path.c_str());
}

WorkloadConfig
workloadConfigFromArgs(const CliArgs &args, const std::string &benchmark,
                       bool numa_sized)
{
    WorkloadConfig config;
    config.name = args.get("benchmark", benchmark);
    config.scale = parseScale(args.get("scale", "small"));
    config.numaSized = numa_sized;
    config.numProcs =
        static_cast<ProcId>(args.getUInt("procs", 0));
    config.seed = args.seed(0);
    config.targetRefsPerProc = args.getUInt("refs", 0);
    return config;
}

int
runTrace(const CliArgs &args)
{
    const WorkloadConfig wl =
        workloadConfigFromArgs(args, "barnes", /*numa_sized=*/false);
    const BenchmarkId id = parseBenchmark(wl.name);
    const PolicyKind kind = policyFromArgs(args, "dcl");

    auto workload = makeWorkload(wl);
    SampledTrace trace = buildSampledTrace(*workload, 1);

    if (args.has("load-trace")) {
        trace.records = loadTrace(args.get("load-trace", ""));
        inform("loaded %zu records (first-touch homes recomputed from "
               "the generated trace)", trace.records.size());
    }
    if (args.has("save-trace")) {
        saveTrace(args.get("save-trace", ""), trace.records);
        inform("saved %zu records", trace.records.size());
    }

    TraceSimConfig config;
    config.l2Bytes = args.getUInt("l2", config.l2Bytes);
    config.l2Assoc =
        static_cast<std::uint32_t>(args.getUInt("assoc", config.l2Assoc));
    if (args.has("validate"))
        config.validateEveryRefs = kValidateCadence;
    const TraceStudy study(trace, config);

    PolicyParams params;
    params.etdAliasBits =
        static_cast<unsigned>(args.getUInt("alias-bits", 0));
    params.depreciationFactor = args.getDouble("depreciation", 2.0);

    const double ratio = args.getDouble("ratio", 4.0);
    const std::string mapping = args.get("mapping", "first-touch");
    const RandomTwoCost random(CostRatio::finite(ratio),
                               args.getDouble("haf", 0.3));
    const FirstTouchTwoCost first_touch(CostRatio::finite(ratio),
                                        trace.homeOf, trace.sampledProc);
    const CostModel &model =
        mapping == "random"
            ? static_cast<const CostModel &>(random)
            : static_cast<const CostModel &>(first_touch);

    TraceSimResult res;
    double lru_cost = 0.0;
    {
        const TraceSession session(args.tracePath());
        res = study.run(kind, model, params);
        lru_cost = study.lruCost(model);
    }

    TextTable table("trace study: " + benchmarkName(id) + " / " +
                    res.policyName + " / " + model.describe());
    table.setHeader({"Metric", "Value"});
    table.addRow({"sampled refs", TextTable::count(res.sampledRefs)});
    table.addRow({"L1 hits", TextTable::count(res.l1Hits)});
    table.addRow({"L2 hits", TextTable::count(res.l2Hits)});
    table.addRow({"L2 misses", TextTable::count(res.l2Misses)});
    table.addRow({"invalidations",
                  TextTable::count(res.invalidationsReceived)});
    table.addRow({"aggregate cost",
                  TextTable::num(res.aggregateCost, 0)});
    table.addRow({"LRU cost", TextTable::num(lru_cost, 0)});
    table.addRow({"savings over LRU (%)",
                  TextTable::num(relativeCostSavings(
                      lru_cost, res.aggregateCost), 2)});
    table.print(std::cout);

    if (!res.policyStats.all().empty()) {
        TextTable stats("policy counters");
        stats.setHeader({"Counter", "Value"});
        for (const auto &[name, value] : res.policyStats.all())
            stats.addRow({name, TextTable::count(value)});
        stats.print(std::cout);
    }

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        res.exportMetrics(registry);
        registry.stat("trace.lru_cost").add(lru_cost);
        writeMetricsIfRequested(args, registry);
    }
    return exitcode::kOk;
}

int
runNuma(const CliArgs &args)
{
    const WorkloadConfig wl =
        workloadConfigFromArgs(args, "raytrace", /*numa_sized=*/true);
    const BenchmarkId id = parseBenchmark(wl.name);
    const PolicyKind kind = policyFromArgs(args, "dcl");

    NumaConfig config;
    config.cycleNs = args.getUInt("clock", 500) >= 1000 ? 1 : 2;
    config.replacementHints = args.getUInt("hints", 1) != 0;
    config.policyParams.etdAliasBits =
        static_cast<unsigned>(args.getUInt("alias-bits", 0));
    config.storeCostWeight = args.getDouble("store-weight", 1.0);
    config.maxSimNs = args.getUInt("max-cycles", config.maxSimNs);
    config.stallWindowNs =
        args.getUInt("stall-window", config.stallWindowNs);
    if (args.has("validate"))
        config.validateEveryEvents = kValidateCadence;

    auto workload = makeWorkload(wl);

    config.policy = PolicyKind::Lru;
    NumaSystem lru(config, *workload);
    const NumaResult base = lru.run();

    config.policy = kind;
    NumaSystem sys(config, *workload);
    NumaResult res;
    {
        const TraceSession session(args.tracePath());
        res = sys.run();
    }

    TextTable table("numa study: " + benchmarkName(id) + " @ " +
                    (config.cycleNs == 1 ? "1GHz" : "500MHz"));
    table.setHeader({"Metric", "LRU", res.policyName});
    table.addRow({"exec time (ms)",
                  TextTable::num(static_cast<double>(base.execTimeNs) /
                                     1e6, 3),
                  TextTable::num(static_cast<double>(res.execTimeNs) /
                                     1e6, 3)});
    table.addRow({"misses", TextTable::count(base.totalMisses),
                  TextTable::count(res.totalMisses)});
    table.addRow({"avg miss latency (ns)",
                  TextTable::num(base.avgMissLatencyNs, 1),
                  TextTable::num(res.avgMissLatencyNs, 1)});
    table.print(std::cout);
    std::cout << "execution time reduction: "
              << TextTable::num(
                     100.0 *
                         (static_cast<double>(base.execTimeNs) -
                          static_cast<double>(res.execTimeNs)) /
                         static_cast<double>(base.execTimeNs),
                     2)
              << "%\n";

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        res.exportMetrics(registry);
        registry.setCounter("numa.lru_exec_time_ns", base.execTimeNs);
        writeMetricsIfRequested(args, registry);
    }
    return exitcode::kOk;
}

int
runReplay(const CliArgs &args)
{
    const replay::ReplayConfig config =
        replay::ReplayConfig::fromArgs(args);
    replay::ReplayResult result;
    {
        const TraceSession session(args.tracePath());
        result = replay::replayTrace(config);
    }

    // Deterministic summary to stdout (CI diffs it across --jobs
    // and against the committed golden, so the title must not leak
    // the invocation directory -- basename only), wall clock to
    // stderr.
    const std::size_t slash = config.path.find_last_of('/');
    const std::string base = slash == std::string::npos
                                 ? config.path
                                 : config.path.substr(slash + 1);
    result
        .summaryTable("replay: " + base + " / " +
                      policyKindName(config.policy))
        .print(std::cout);
    result.timingTable().print(std::cerr);

    if (args.has("json")) {
        std::ofstream os(args.jsonPath());
        result.writeJsonObject(os, policyKindName(config.policy));
        os << "\n";
        if (!os)
            throw ConfigError("--json: cannot write '" +
                              args.jsonPath() + "'");
    }

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        registry.setCounter("replay.ops", result.totals.ops);
        registry.setCounter("replay.hits", result.totals.hits);
        registry.setCounter("replay.misses", result.totals.misses);
        registry.setCounter("replay.evictions",
                            result.totals.evictions);
        registry.setCounter("replay.miss_cost_ns",
                            result.totals.missCostNs);
        registry.setCounter("replay.jobs", result.jobs);
        registry.recordTimerSec("replay.wall", result.wallSec);
        writeMetricsIfRequested(args, registry);
    }
    return exitcode::kOk;
}

int
runSweep(const CliArgs &args)
{
    SweepGrid grid = parseGridSpec(args.get("grid", "table1"));
    if (args.has("scale"))
        grid.scale = parseScale(args.get("scale", "small"));

    SweepOptions options;
    options.maxAttempts =
        static_cast<unsigned>(args.getUInt("retries", 0)) + 1;
    options.checkpointPath = args.get("checkpoint", "");
    options.resume = args.has("resume");
    if (options.resume && options.checkpointPath.empty())
        throw ConfigError("--resume requires --checkpoint FILE");
    if (args.has("validate"))
        options.validateEveryRefs = kValidateCadence;
    ChaosConfig faults;
    faults.rate = args.getDouble("fault-rate", 0.0);
    faults.seed = args.getUInt("fault-seed", 1);
    if (faults.rate < 0.0 || faults.rate > 1.0)
        throw ConfigError("--fault-rate must be in [0,1]");
    options.cellProbe = injectFaults(faults);

    const SweepRunner runner(args.jobs());
    SweepResult result;
    {
        const TraceSession session(args.tracePath());
        result = runner.run(grid, options);
    }

    TextTable table = result.toTable(
        "sweep: " + std::to_string(result.cells.size()) + "/" +
        std::to_string(result.gridCells) + " cells");
    if (args.getUInt("csv", 0))
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    if (!result.complete())
        result.failureTable().print(std::cout);

    // Timing to stderr: per-cell results on stdout stay bit-diffable
    // across --jobs values.
    result.timingTable().print(std::cerr);

    if (args.has("json"))
        result.writeJson(args.jsonPath(),
                         args.getUInt("json-timing", 1) != 0);

    if (!args.metricsPath().empty()) {
        MetricRegistry registry;
        registry.setCounter("sweep.cells", result.cells.size());
        registry.setCounter("sweep.grid_cells", result.gridCells);
        registry.setCounter("sweep.failed_cells",
                            result.failures.size());
        registry.setCounter("sweep.resumed_cells", result.resumedCells);
        registry.setCounter("sweep.jobs", result.jobs);
        registry.recordTimerSec("sweep.wall", result.wallSec);
        registry.recordTimerSec("sweep.setup", result.setupSec);
        for (const SweepCellResult &cell : result.cells) {
            registry.incCounter("sweep.sampled_refs", cell.sampledRefs);
            registry.incCounter("sweep.l2_misses", cell.l2Misses);
            registry.stat("sweep.savings_pct").add(cell.savingsPct);
        }
        writeMetricsIfRequested(args, registry);
    }
    return result.complete() ? exitcode::kOk : exitcode::kSweepPartial;
}

int
runReproduce(const CliArgs &args)
{
    const std::string name = args.get("name", "");
    std::vector<const Reproduction *> records;
    for (const Reproduction &record : reproductions())
        if (name == "all" || record.name == name)
            records.push_back(&record);
    if (records.empty())
        findReproduction(name); // throws, naming the valid records
    const WorkloadScale scale = parseScale(args.get("scale", "small"));

    MetricRegistry registry;
    const TraceSession session(args.tracePath());
    for (const Reproduction *record : records) {
        if (record != records.front())
            std::cout << "\n";
        ReproRun run;
        runReproduction(*record, scale, args.jobs(), run);
        std::cout << run.out.str() << std::flush;
        std::cerr << run.log.str();
        for (const Claim &claim : record->claims)
            std::cerr << "### " << record->name << ": "
                      << (claim.holds(run.numbers) ? "holds" : "FAILS")
                      << ": " << claim.text << "\n";
        for (const auto &[metric, hist] : run.histograms)
            registry.mergeHistogram(metric, hist);
    }
    if (!registry.empty())
        writeMetricsIfRequested(args, registry);
    return exitcode::kOk;
}

void
usage()
{
    std::cerr
        << "usage: csrsim trace|numa|sweep|replay|reproduce "
           "[--key value ...]\n"
           "  common: --benchmark barnes|lu|ocean|raytrace\n"
           "          --policy " << policyNamesJoined() << "\n"
        << "          --scale test|small|full  --alias-bits N\n"
           "          --procs N --refs N --seed N --validate\n"
           "          --trace FILE (Chrome trace JSON, see Perfetto)\n"
           "          --metrics FILE (unified metrics JSON)\n"
           "  trace:  --mapping random|first-touch --ratio R --haf F\n"
           "          --assoc N --l2 BYTES --depreciation F\n"
           "          --save-trace FILE --load-trace FILE\n"
           "  numa:   --clock 500|1000 --hints 0|1 --store-weight W\n"
           "          --max-cycles NS --stall-window NS\n"
           "  replay: --file T.csrt --cache-bytes N --assoc N\n"
           "          --block-bytes N --jobs N --max-ops N\n"
           "          --default-cost NS --read-mode mmap|buffered\n"
           "          --depreciation F --json FILE\n"
           "  sweep:  --grid PRESET|\"key=v1,v2;...\" --jobs N --csv 0|1\n"
           "          --json FILE --json-timing 0|1\n"
           "          --checkpoint FILE [--resume] --retries N\n"
           "          --fault-rate P (per cell attempt) --fault-seed N\n"
           "          presets: table1 fig3 ablation-assoc\n"
           "            ablation-cachesize ablation-depreciation\n"
           "            ablation-etd smoke\n"
           "          keys: benchmarks policies mappings ratios hafs\n"
           "            l2 assocs alias-bits depreciations scale\n"
           "            traces (.csrt files; replaces benchmarks)\n"
           "  reproduce: --name RECORD|all --scale test|small|full\n"
           "          --jobs N --metrics FILE (Table 5 histograms)\n"
           "          records: " << reproductionNames() << "\n"
           "  exit codes: 0 ok, 2 config, 3 trace format, 4 checkpoint,\n"
           "    5 stall, 6 geometry, 7 invariant, 8 injected fault,\n"
           "    10 sweep finished with failed cells\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return exitcode::kGeneric;
    }
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h") {
        usage();
        return exitcode::kOk;
    }
    try {
        const CliArgs args(argc, argv, /*first=*/2,
                           /*valueless=*/{"resume", "validate"});
        if (args.helpRequested()) {
            usage();
            return exitcode::kOk;
        }
        auto known = kModeFlags.find(mode);
        if (known == kModeFlags.end()) {
            usage();
            return exitcode::kGeneric;
        }
        args.requireKnown(known->second);
        checkOutputPaths(args);
        if (mode == "trace")
            return runTrace(args);
        if (mode == "numa")
            return runNuma(args);
        if (mode == "sweep")
            return runSweep(args);
        if (mode == "replay")
            return runReplay(args);
        if (mode == "reproduce")
            return runReproduce(args);
    } catch (const Error &e) {
        std::cerr << "csrsim: " << e.kind() << ": " << e.what() << "\n";
        return e.exitCode();
    } catch (const std::exception &e) {
        std::cerr << "csrsim: " << e.what() << "\n";
        return exitcode::kGeneric;
    }
    usage();
    return exitcode::kGeneric;
}
