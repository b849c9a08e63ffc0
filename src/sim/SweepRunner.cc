#include "sim/SweepRunner.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <tuple>
#include <utility>

#include "cost/StaticCostModels.h"
#include "replay/Format.h"
#include "replay/SweepTrace.h"
#include "robust/CheckpointLog.h"
#include "sim/SweepCheckpoint.h"
#include "telemetry/Telemetry.h"
#include "util/Logging.h"
#include "util/Random.h"
#include "util/ThreadPool.h"

namespace csr
{

namespace
{

std::uint64_t
mixInto(std::uint64_t h, std::uint64_t v)
{
    return hashMix64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) +
                          (h >> 2)));
}

std::uint64_t
mixDouble(std::uint64_t h, double v)
{
    return mixInto(h, std::bit_cast<std::uint64_t>(v));
}

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return out;
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t end = s.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

double
parseNumberFor(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    const double parsed = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0')
        throw ConfigError("grid key '" + key + "': '" + v +
                          "' is not a number");
    return parsed;
}

std::uint64_t
parseUIntFor(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    const std::uint64_t parsed = std::strtoull(v.c_str(), &end, 0);
    if (end == v.c_str() || *end != '\0')
        throw ConfigError("grid key '" + key + "': '" + v +
                          "' is not an unsigned integer");
    return parsed;
}

/** (workload source, l2Bytes, assoc): what a TraceStudy is keyed by.
 *  The source is the benchmark for synthetic cells and the trace path
 *  for .csrt cells. */
using StudyKey = std::tuple<BenchmarkId, std::string, std::uint64_t,
                            std::uint32_t>;

StudyKey
studyKeyOf(const SweepCell &cell)
{
    return {cell.benchmark, cell.traceFile, cell.l2Bytes, cell.l2Assoc};
}

/** Human label of a cell's workload source (tables, JSON). */
std::string
sourceNameOf(const SweepCell &cell)
{
    return cell.traceFile.empty() ? benchmarkName(cell.benchmark)
                                  : replay::traceCellName(cell.traceFile);
}

/** Loaded .csrt traces, keyed by path. */
using FileTraceMap =
    std::map<std::string, std::shared_ptr<const SampledTrace>>;

FileTraceMap
buildFileTracesWith(ThreadPool &pool,
                    const std::vector<std::string> &paths,
                    std::uint32_t block_bytes)
{
    std::vector<std::string> unique = paths;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()),
                 unique.end());

    std::vector<std::shared_ptr<const SampledTrace>> built(
        unique.size());
    parallelFor(pool, unique.size(), [&](std::size_t i) {
        built[i] = std::make_shared<const SampledTrace>(
            replay::loadReplaySampledTrace(unique[i], block_bytes));
    });

    FileTraceMap traces;
    for (std::size_t i = 0; i < unique.size(); ++i)
        traces.emplace(unique[i], std::move(built[i]));
    return traces;
}

SweepRunner::TraceMap
buildTracesWith(ThreadPool &pool,
                const std::vector<BenchmarkId> &benchmarks,
                WorkloadScale scale)
{
    std::vector<BenchmarkId> unique = benchmarks;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()),
                 unique.end());

    std::vector<std::shared_ptr<const SampledTrace>> built(unique.size());
    parallelFor(pool, unique.size(), [&](std::size_t i) {
        auto workload = makeWorkload(unique[i], scale);
        built[i] = std::make_shared<const SampledTrace>(
            buildSampledTrace(*workload, /*sampled=*/1));
    });

    SweepRunner::TraceMap traces;
    for (std::size_t i = 0; i < unique.size(); ++i)
        traces.emplace(unique[i], std::move(built[i]));
    return traces;
}

} // namespace

std::string
costMappingName(CostMapping mapping)
{
    switch (mapping) {
      case CostMapping::Random:
        return "random";
      case CostMapping::FirstTouch:
        return "first-touch";
    }
    return "?";
}

CostMapping
parseCostMapping(const std::string &name)
{
    const std::string s = lowered(name);
    if (s == "random")
        return CostMapping::Random;
    if (s == "first-touch" || s == "firsttouch" || s == "ft")
        return CostMapping::FirstTouch;
    throw ConfigError("unknown cost mapping '" + name +
                      "' (random|first-touch)");
}

std::uint64_t
SweepCell::mappingHash() const
{
    std::uint64_t h = 0xC0517B10ull;
    h = mixInto(h, static_cast<std::uint64_t>(benchmark));
    // Only trace cells mix the path in, so the fingerprints of every
    // pre-existing synthetic grid (and their checkpoints) are stable.
    if (!traceFile.empty())
        h = mixInto(h, replay::format::fnv1aString(traceFile));
    h = mixInto(h, static_cast<std::uint64_t>(mapping));
    h = mixDouble(h, ratio.low);
    h = mixDouble(h, ratio.high);
    h = mixInto(h, ratio.infinite ? 1 : 0);
    h = mixDouble(h, mapping == CostMapping::Random ? haf : 0.0);
    h = mixInto(h, static_cast<std::uint64_t>(scale));
    return h;
}

std::uint64_t
SweepCell::hash() const
{
    std::uint64_t h = mappingHash();
    h = mixInto(h, static_cast<std::uint64_t>(policy));
    h = mixInto(h, l2Bytes);
    h = mixInto(h, l2Assoc);
    h = mixInto(h, etdAliasBits);
    h = mixDouble(h, depreciationFactor);
    return h;
}

std::string
SweepCell::label() const
{
    std::string out = sourceNameOf(*this) + "/" +
                      policyKindName(policy) + "/" +
                      costMappingName(mapping) + "/" + ratio.label();
    if (mapping == CostMapping::Random)
        out += "/haf=" + TextTable::num(haf, 2);
    return out;
}

std::vector<SweepCell>
SweepGrid::expand() const
{
    // The HAF axis only parameterizes the random mapping; collapse it
    // for first-touch cells instead of emitting duplicates.
    const std::vector<double> one_haf = {0.0};

    // A non-empty traceFiles list replaces the benchmarks axis: the
    // workload-source loop runs over recorded traces instead.
    const std::size_t num_sources =
        traceFiles.empty() ? benchmarks.size() : traceFiles.size();

    std::vector<SweepCell> cells;
    for (std::size_t source = 0; source < num_sources; ++source) {
        for (PolicyKind policy : policies) {
            for (CostMapping mapping : mappings) {
                const auto &mapping_hafs =
                    mapping == CostMapping::Random ? hafs : one_haf;
                for (const CostRatio &ratio : ratios) {
                    for (double haf : mapping_hafs) {
                        for (std::uint64_t l2 : l2Sizes) {
                            for (std::uint32_t assoc : assocs) {
                                for (unsigned alias : aliasBits) {
                                    for (double depr : depreciations) {
                                        SweepCell cell;
                                        if (traceFiles.empty())
                                            cell.benchmark =
                                                benchmarks[source];
                                        else
                                            cell.traceFile =
                                                traceFiles[source];
                                        cell.policy = policy;
                                        cell.mapping = mapping;
                                        cell.ratio = ratio;
                                        cell.haf = haf;
                                        cell.l2Bytes = l2;
                                        cell.l2Assoc = assoc;
                                        cell.etdAliasBits = alias;
                                        cell.depreciationFactor = depr;
                                        cell.scale = scale;
                                        cells.push_back(cell);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    return cells;
}

TextTable
SweepResult::toTable(const std::string &title) const
{
    TextTable table(title);
    table.setHeader({"#", "Benchmark", "Policy", "Mapping", "Ratio",
                     "HAF", "L2", "Assoc", "Alias", "Depr",
                     "L2 misses", "Agg cost", "LRU cost",
                     "Savings (%)"});
    for (const SweepCellResult &res : cells) {
        const SweepCell &cell = res.cell;
        table.addRow({
            std::to_string(res.index),
            sourceNameOf(cell),
            policyKindName(cell.policy),
            costMappingName(cell.mapping),
            cell.ratio.label(),
            cell.mapping == CostMapping::Random
                ? TextTable::num(cell.haf, 2)
                : "-",
            std::to_string(cell.l2Bytes / 1024) + "KB",
            std::to_string(cell.l2Assoc),
            cell.etdAliasBits == 0
                ? "full"
                : std::to_string(cell.etdAliasBits) + "b",
            TextTable::num(cell.depreciationFactor, 1),
            TextTable::count(res.l2Misses),
            TextTable::num(res.aggregateCost, 4),
            TextTable::num(res.lruCost, 4),
            TextTable::num(res.savingsPct, 2),
        });
    }
    return table;
}

TextTable
SweepResult::failureTable() const
{
    TextTable table("failed cells");
    table.setHeader({"#", "Cell", "Error", "Attempts", "Message"});
    for (const CellFailure &failure : failures) {
        // The appendix is a summary; multi-line messages (stall
        // snapshots) keep only their first line here.
        std::string brief = failure.message;
        const std::size_t nl = brief.find('\n');
        if (nl != std::string::npos)
            brief = brief.substr(0, nl) + " [...]";
        table.addRow({
            std::to_string(failure.index),
            failure.cell.label(),
            failure.kind,
            std::to_string(failure.attempts),
            brief,
        });
    }
    return table;
}

TextTable
SweepResult::timingTable() const
{
    TextTable table("sweep timing");
    table.setHeader({"Metric", "Value"});
    table.addRow({"jobs", std::to_string(jobs)});
    table.addRow({"grid cells", std::to_string(gridCells)});
    table.addRow({"succeeded", std::to_string(cells.size())});
    table.addRow({"failed", std::to_string(failures.size())});
    table.addRow({"resumed", std::to_string(resumedCells)});
    table.addRow({"wall (s)", TextTable::num(wallSec, 3)});
    table.addRow({"setup (s)", TextTable::num(setupSec, 3)});
    table.addRow({"task total (s)", TextTable::num(taskSecTotal, 3)});
    table.addRow({"task max (s)", TextTable::num(taskSecMax, 3)});
    table.addRow({"speedup",
                  TextTable::num(wallSec > 0.0
                                     ? taskSecTotal / wallSec
                                     : 0.0, 2)});
    table.addRow({"cells/s",
                  TextTable::num(wallSec > 0.0
                                     ? static_cast<double>(cells.size()) /
                                           wallSec
                                     : 0.0, 2)});
    return table;
}

void
SweepResult::writeJson(const std::string &path,
                       bool include_timing) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw ConfigError("cannot write sweep JSON to '" + path + "'");
    std::fprintf(f, "{\n");
    if (include_timing) {
        // Timing is inherently run-dependent; byte-stable consumers
        // (the resume-equivalence check) ask for it to be left out.
        std::fprintf(f,
                     "  \"jobs\": %u,\n"
                     "  \"wallSec\": %.6f,\n"
                     "  \"setupSec\": %.6f,\n"
                     "  \"taskSecTotal\": %.6f,\n"
                     "  \"taskSecMax\": %.6f,\n",
                     jobs, wallSec, setupSec, taskSecTotal,
                     taskSecMax);
    }
    std::fprintf(f,
                 "  \"gridCells\": %zu,\n"
                 "  \"succeeded\": %zu,\n"
                 "  \"failed\": %zu,\n"
                 "  \"cells\": [\n",
                 gridCells, cells.size(), failures.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCellResult &res = cells[i];
        const SweepCell &cell = res.cell;
        std::fprintf(
            f,
            "    {\"index\": %zu, \"benchmark\": \"%s\","
            " \"policy\": \"%s\", \"mapping\": \"%s\","
            " \"ratio\": \"%s\", \"haf\": %.4f,"
            " \"l2Bytes\": %llu, \"assoc\": %u, \"aliasBits\": %u,"
            " \"depreciation\": %.4f, \"seed\": %llu,"
            " \"sampledRefs\": %llu, \"l2Hits\": %llu,"
            " \"l2Misses\": %llu, \"aggregateCost\": %.6f,"
            " \"lruCost\": %.6f, \"savingsPct\": %.6f}%s\n",
            res.index, jsonEscape(sourceNameOf(cell)).c_str(),
            policyKindName(cell.policy).c_str(),
            costMappingName(cell.mapping).c_str(),
            cell.ratio.label().c_str(), cell.haf,
            static_cast<unsigned long long>(cell.l2Bytes),
            cell.l2Assoc, cell.etdAliasBits, cell.depreciationFactor,
            static_cast<unsigned long long>(res.seed),
            static_cast<unsigned long long>(res.sampledRefs),
            static_cast<unsigned long long>(res.l2Hits),
            static_cast<unsigned long long>(res.l2Misses),
            res.aggregateCost, res.lruCost, res.savingsPct,
            i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"failures\": [\n");
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const CellFailure &failure = failures[i];
        std::fprintf(
            f,
            "    {\"index\": %zu, \"cell\": \"%s\","
            " \"kind\": \"%s\", \"attempts\": %u,"
            " \"message\": \"%s\"}%s\n",
            failure.index, jsonEscape(failure.cell.label()).c_str(),
            jsonEscape(failure.kind).c_str(), failure.attempts,
            jsonEscape(failure.message).c_str(),
            i + 1 < failures.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

SweepOptions::CellProbe
injectFaults(const ChaosConfig &chaos)
{
    if (!chaos.enabled())
        return {};
    return [chaos](const SweepCell &cell, unsigned attempt) {
        if (chaosDecide(chaos, ChaosSite::SweepCell, cell.hash(),
                        attempt))
            throw InjectedFaultError(
                std::string("injected fault at ") +
                chaosSiteName(ChaosSite::SweepCell) + ", attempt " +
                std::to_string(attempt));
    };
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : ThreadPool::defaultThreads())
{
}

SweepRunner::TraceMap
SweepRunner::buildTraces(const std::vector<BenchmarkId> &benchmarks,
                         WorkloadScale scale) const
{
    ThreadPool pool(jobs_);
    return buildTracesWith(pool, benchmarks, scale);
}

namespace
{

/** Deterministic capped exponential backoff before retry @p attempt
 *  (the one that just failed).  The jitter is a pure function of the
 *  cell seed and attempt number, so retry schedules are reproducible
 *  run to run. */
void
retrySleep(std::uint64_t base_ms, std::uint64_t seed, unsigned attempt)
{
    if (base_ms == 0)
        return;
    const unsigned shift = std::min(attempt - 1, 10u);
    const std::uint64_t capped =
        std::min<std::uint64_t>(base_ms << shift, 1000);
    const std::uint64_t jitter =
        hashMix64(seed ^ (0xBAC0FFull + attempt)) % (capped / 2 + 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(capped + jitter));
}

} // namespace

SweepResult
SweepRunner::run(const SweepGrid &grid, const SweepOptions &options) const
{
    CSR_TRACE_SPAN("sweep", "SweepRunner::run");
    const std::vector<SweepCell> cells = grid.expand();
    if (cells.empty())
        throw ConfigError("sweep grid expands to zero cells");
    if (options.maxAttempts == 0)
        throw ConfigError("sweep maxAttempts must be >= 1");

    WallTimer total;
    ThreadPool pool(jobs_);

    // Per-cell outcome slots, compacted into the result afterwards.
    enum class Outcome { Pending, Ok, Failed };
    struct Slot
    {
        Outcome outcome = Outcome::Pending;
        SweepCellResult result;
        CellFailure failure;
    };
    std::vector<Slot> slots(cells.size());

    // Checkpoint: restore completed cells, then (re)open the journal.
    // A journal without a valid header (missing file, or only a torn
    // first line) is started from scratch.
    JsonlWriter journal;
    std::size_t resumed = 0;
    if (!options.checkpointPath.empty()) {
        SweepCheckpointState restored;
        if (options.resume)
            restored =
                loadSweepCheckpoint(options.checkpointPath, cells);
        journal.open(options.checkpointPath,
                     /*truncate=*/!restored.headerValid);
        if (!restored.headerValid)
            journal.appendLine(checkpointHeaderLine(
                gridFingerprint(cells), cells.size()));
        // Only successes are final: a journaled failure means the
        // cell never produced a result, so resume re-runs it (e.g.
        // after the transient cause -- a full disk, an injected
        // fault -- has gone away).  Its new outcome is journaled
        // again, and the loader lets the later line win.
        for (auto &[index, res] : restored.results) {
            slots[index].outcome = Outcome::Ok;
            slots[index].result = std::move(res);
        }
        resumed = restored.results.size();
    }

    // Setup covers only cells that still have to run -- resuming a
    // finished sweep rebuilds nothing.
    std::vector<BenchmarkId> pending_benchmarks;
    std::vector<std::string> pending_trace_files;
    std::vector<StudyKey> study_keys;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (slots[i].outcome != Outcome::Pending)
            continue;
        if (cells[i].traceFile.empty())
            pending_benchmarks.push_back(cells[i].benchmark);
        else
            pending_trace_files.push_back(cells[i].traceFile);
        const StudyKey key = studyKeyOf(cells[i]);
        if (std::find(study_keys.begin(), study_keys.end(), key) ==
            study_keys.end())
            study_keys.push_back(key);
    }

    // Setup phase 1: one sampled trace per workload source --
    // synthesized per benchmark, decoded per .csrt file.
    const TraceMap traces =
        buildTracesWith(pool, pending_benchmarks, grid.scale);
    const FileTraceMap file_traces = buildFileTracesWith(
        pool, pending_trace_files, TraceSimConfig{}.blockBytes);

    // Setup phase 2: one TraceStudy (LRU replay + miss profile) per
    // unique (benchmark, geometry).  Cells only read these afterward.
    std::vector<std::shared_ptr<const TraceStudy>> built(
        study_keys.size());
    parallelFor(pool, study_keys.size(), [&](std::size_t i) {
        const auto &[benchmark, trace_file, l2_bytes, assoc] =
            study_keys[i];
        TraceSimConfig config;
        config.l2Bytes = l2_bytes;
        config.l2Assoc = assoc;
        config.validateEveryRefs = options.validateEveryRefs;
        const SampledTrace &trace = trace_file.empty()
                                        ? *traces.at(benchmark)
                                        : *file_traces.at(trace_file);
        built[i] = std::make_shared<const TraceStudy>(trace, config);
    });
    std::map<StudyKey, std::shared_ptr<const TraceStudy>> studies;
    for (std::size_t i = 0; i < study_keys.size(); ++i)
        studies.emplace(study_keys[i], std::move(built[i]));

    SweepResult result;
    result.jobs = jobs_;
    result.gridCells = cells.size();
    result.resumedCells = resumed;
    result.setupSec = total.elapsedSec();

    // Every cell is independent: its own policy, cost model and
    // outcome slot, seeded purely from the cell's configuration hash.
    // The guard around each attempt is what keeps one bad cell from
    // taking the grid down: typed failures are recorded, retried up
    // to maxAttempts, and finally journaled as CellFailures.
    ParallelTiming timing;
    parallelFor(pool, cells.size(), [&](std::size_t i) {
        Slot &slot = slots[i];
        if (slot.outcome != Outcome::Pending)
            return; // restored from the checkpoint
        WallTimer task_timer;
        const SweepCell &cell = cells[i];
        CSR_TRACE_SPAN_DYN("sweep", cell.label());
        const std::uint64_t seed = cell.hash();

        std::string fail_kind, fail_message;
        unsigned attempt = 0;
        while (slot.outcome == Outcome::Pending) {
            ++attempt;
            try {
                if (options.cellProbe)
                    options.cellProbe(cell, attempt);

                const TraceStudy &study =
                    *studies.at(studyKeyOf(cell));
                const SampledTrace &trace =
                    cell.traceFile.empty()
                        ? *traces.at(cell.benchmark)
                        : *file_traces.at(cell.traceFile);

                PolicyParams params;
                params.etdAliasBits = cell.etdAliasBits;
                params.depreciationFactor = cell.depreciationFactor;
                params.seed = seed;

                const RandomTwoCost random(cell.ratio, cell.haf,
                                           cell.mappingHash());
                const FirstTouchTwoCost first_touch(
                    cell.ratio, trace.homeOf, trace.sampledProc);
                const CostModel &model =
                    cell.mapping == CostMapping::Random
                        ? static_cast<const CostModel &>(random)
                        : static_cast<const CostModel &>(first_touch);

                const TraceSimResult sim =
                    study.run(cell.policy, model, params);
                const double lru_cost = study.lruCost(model);

                SweepCellResult &out = slot.result;
                out.cell = cell;
                out.index = i;
                out.seed = seed;
                out.sampledRefs = sim.sampledRefs;
                out.l2Hits = sim.l2Hits;
                out.l2Misses = sim.l2Misses;
                out.aggregateCost = sim.aggregateCost;
                out.lruCost = lru_cost;
                out.savingsPct =
                    relativeCostSavings(lru_cost, sim.aggregateCost);
                slot.outcome = Outcome::Ok;
            } catch (const Error &e) {
                fail_kind = e.kind();
                fail_message = e.what();
            } catch (const std::exception &e) {
                fail_kind = "std::exception";
                fail_message = e.what();
            }
            if (slot.outcome == Outcome::Ok)
                break;
            CSR_TRACE_INSTANT("sweep", "cell-failure");
            if (attempt >= options.maxAttempts) {
                slot.failure.cell = cell;
                slot.failure.index = i;
                slot.failure.kind = fail_kind;
                slot.failure.message = fail_message;
                slot.failure.attempts = attempt;
                slot.outcome = Outcome::Failed;
                break;
            }
            retrySleep(options.retryBackoffMs, seed, attempt);
        }

        if (slot.outcome == Outcome::Ok) {
            slot.result.taskSec = task_timer.elapsedSec();
            timing.recordTask(slot.result.taskSec);
            if (journal.isOpen())
                journal.appendLine(checkpointCellLine(slot.result));
        } else if (journal.isOpen()) {
            journal.appendLine(checkpointFailureLine(slot.failure));
        }
    });

    // Compact the slots into grid order: successes first-class,
    // failures as the appendix.
    for (Slot &slot : slots) {
        if (slot.outcome == Outcome::Ok)
            result.cells.push_back(std::move(slot.result));
        else
            result.failures.push_back(std::move(slot.failure));
    }

    result.wallSec = total.elapsedSec();
    result.taskSecTotal = timing.taskSecTotal();
    result.taskSecMax = timing.taskSecMax();
    return result;
}

SweepGrid
presetGrid(const std::string &name)
{
    SweepGrid grid;
    if (name == "table1") {
        // The Table 1 workloads under every paper policy and both
        // mappings at the headline operating point (r=4, HAF=0.3).
        grid.mappings = {CostMapping::Random, CostMapping::FirstTouch};
        return grid;
    }
    if (name == "fig3") {
        grid.mappings = {CostMapping::Random};
        grid.ratios = {
            CostRatio::finite(2),  CostRatio::finite(4),
            CostRatio::finite(8),  CostRatio::finite(16),
            CostRatio::finite(32), CostRatio::makeInfinite(),
        };
        grid.hafs = {0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4,
                     0.5, 0.6,  0.7,  0.8, 0.9, 1.0};
        return grid;
    }
    if (name == "ablation-assoc") {
        grid.policies = {PolicyKind::Dcl};
        grid.mappings = {CostMapping::Random, CostMapping::FirstTouch};
        grid.assocs = {2, 4, 8};
        return grid;
    }
    if (name == "ablation-cachesize") {
        grid.policies = {PolicyKind::Dcl};
        grid.mappings = {CostMapping::FirstTouch};
        grid.l2Sizes = {4 * 1024, 8 * 1024, 16 * 1024, 64 * 1024,
                        256 * 1024};
        return grid;
    }
    if (name == "ablation-depreciation") {
        grid.policies = {PolicyKind::Bcl, PolicyKind::Dcl};
        grid.mappings = {CostMapping::FirstTouch};
        grid.depreciations = {0.5, 1.0, 2.0, 4.0};
        return grid;
    }
    if (name == "ablation-etd") {
        grid.policies = {PolicyKind::Dcl, PolicyKind::Acl};
        grid.mappings = {CostMapping::FirstTouch};
        grid.aliasBits = {0, 8, 4, 2};
        return grid;
    }
    if (name == "smoke") {
        grid.benchmarks = {BenchmarkId::Lu};
        grid.policies = {PolicyKind::Dcl};
        grid.scale = WorkloadScale::Test;
        return grid;
    }
    throw ConfigError("unknown sweep preset '" + name +
                      "' (table1|fig3|ablation-assoc|"
                      "ablation-cachesize|ablation-depreciation|"
                      "ablation-etd|smoke)");
}

SweepGrid
parseGridSpec(const std::string &spec)
{
    if (spec.find('=') == std::string::npos)
        return presetGrid(spec);

    SweepGrid grid;
    for (const std::string &field : splitList(spec, ';')) {
        if (field.empty())
            continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            throw ConfigError("malformed grid field '" + field +
                              "' (want key=v1,v2,...)");
        const std::string key = field.substr(0, eq);
        const std::vector<std::string> values =
            splitList(field.substr(eq + 1), ',');
        if (values.empty() || values.front().empty())
            throw ConfigError("empty value list for grid key '" + key +
                              "'");

        if (key == "benchmarks") {
            grid.benchmarks.clear();
            for (const auto &v : values)
                grid.benchmarks.push_back(parseBenchmark(v));
        } else if (key == "policies") {
            grid.policies.clear();
            for (const auto &v : values)
                grid.policies.push_back(requirePolicyKind(v));
        } else if (key == "mappings") {
            grid.mappings.clear();
            for (const auto &v : values)
                grid.mappings.push_back(parseCostMapping(v));
        } else if (key == "ratios") {
            grid.ratios.clear();
            for (const auto &v : values) {
                if (lowered(v) == "inf") {
                    grid.ratios.push_back(CostRatio::makeInfinite());
                } else {
                    const double ratio = parseNumberFor(key, v);
                    if (ratio <= 0.0)
                        throw ConfigError(
                            "cost ratio " + std::to_string(ratio) +
                            " must be positive");
                    grid.ratios.push_back(CostRatio::finite(ratio));
                }
            }
        } else if (key == "hafs") {
            grid.hafs.clear();
            for (const auto &v : values) {
                const double haf = parseNumberFor(key, v);
                if (haf < 0.0 || haf > 1.0)
                    throw ConfigError("HAF " + std::to_string(haf) +
                                      " out of [0,1]");
                grid.hafs.push_back(haf);
            }
        } else if (key == "l2") {
            grid.l2Sizes.clear();
            for (const auto &v : values)
                grid.l2Sizes.push_back(parseUIntFor(key, v));
        } else if (key == "assocs") {
            grid.assocs.clear();
            for (const auto &v : values)
                grid.assocs.push_back(
                    static_cast<std::uint32_t>(parseUIntFor(key, v)));
        } else if (key == "alias-bits") {
            grid.aliasBits.clear();
            for (const auto &v : values)
                grid.aliasBits.push_back(
                    static_cast<unsigned>(parseUIntFor(key, v)));
        } else if (key == "depreciations") {
            grid.depreciations.clear();
            for (const auto &v : values)
                grid.depreciations.push_back(parseNumberFor(key, v));
        } else if (key == "traces") {
            grid.traceFiles.clear();
            for (const auto &v : values)
                grid.traceFiles.push_back(v);
        } else if (key == "scale") {
            grid.scale = parseScale(values.front());
        } else {
            throw ConfigError("unknown grid key '" + key + "'");
        }
    }
    return grid;
}

} // namespace csr
