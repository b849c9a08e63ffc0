#include "sim/Reproduction.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cache/CacheGeometry.h"
#include "cache/HwOverhead.h"
#include "cost/MigrationCost.h"
#include "cost/StaticCostModels.h"
#include "numa/NumaSystem.h"
#include "robust/Errors.h"
#include "sim/SweepRunner.h"
#include "sim/TraceStudy.h"
#include "trace/StackDistance.h"
#include "trace/WorkloadFactory.h"
#include "util/Table.h"
#include "util/ThreadPool.h"

namespace csr
{

void
printBanner(std::ostream &os, const std::string &title,
            WorkloadScale scale)
{
    os << "### " << title << "\n### scale=" << scaleName(scale)
       << "  (--scale test|small|full)\n\n";
}

namespace
{

using Labels = std::vector<std::string>;

std::string
pct(double v)
{
    return TextTable::num(v, 2);
}

Labels
benchmarkNames(const std::vector<BenchmarkId> &ids = paperBenchmarks())
{
    Labels names;
    for (BenchmarkId id : ids)
        names.push_back(benchmarkName(id));
    return names;
}

template <typename Items, typename Pred>
bool
all(const Items &items, Pred pred)
{
    return std::all_of(std::begin(items), std::end(items), pred);
}

// --- tables from numbers ----------------------------------------------------

/** One table's row and column labels; its values live in ReproNumbers
 *  under (label, row, column). */
struct Pane
{
    std::string label;
    Labels rows;
    Labels cols;
};

/**
 * @p panes as one table.  With one corner label each pane prints as
 * plain rows; with two the panes stack, the pane label heading each
 * block's first row and a separator closing it.
 */
TextTable
tableOf(const std::string &title, const Labels &corners,
        const std::vector<Pane> &panes, const ReproNumbers &numbers,
        int decimals = 2)
{
    const bool stacked = corners.size() == 2;
    TextTable table(title);
    Labels header = corners;
    header.insert(header.end(), panes.front().cols.begin(),
                  panes.front().cols.end());
    table.setHeader(header);
    for (const Pane &pane : panes) {
        for (const std::string &row : pane.rows) {
            Labels cells = {row};
            if (stacked)
                cells.insert(cells.begin(),
                             row == pane.rows.front() ? pane.label : "");
            for (const std::string &col : pane.cols)
                cells.push_back(TextTable::num(
                    numbers.at({pane.label, row, col}), decimals));
            table.addRow(cells);
        }
        if (stacked)
            table.addSeparator();
    }
    return table;
}

// --- sweeps and their pivot -------------------------------------------------

/** Run @p grid at @p scale on @p jobs workers, timing to the log. */
SweepResult
runGrid(SweepGrid grid, WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    grid.scale = scale;
    SweepResult sweep = SweepRunner(jobs).run(grid);
    run.log << "### sweep: " << sweep.cells.size() << " cells on "
            << sweep.jobs << " jobs in " << TextTable::num(sweep.wallSec, 2)
            << "s (task total " << TextTable::num(sweep.taskSecTotal, 2)
            << "s)\n";
    return sweep;
}

using CellLabel = std::function<std::string(const SweepCellResult &)>;

/** Where a sweep cell lands in a record's tables; the value is always
 *  its savings over LRU. */
struct PivotSpec
{
    CellLabel pane; ///< empty: the record's only pane, labelled ""
    CellLabel row;
    CellLabel col;
};

const CellLabel benchmarkOf = [](const SweepCellResult &c) {
    return benchmarkName(c.cell.benchmark);
};
const CellLabel policyOf = [](const SweepCellResult &c) {
    return policyKindName(c.cell.policy);
};
const CellLabel ratioOf = [](const SweepCellResult &c) {
    return c.cell.ratio.label();
};

void
appendUnique(Labels &keys, const std::string &key)
{
    if (std::find(keys.begin(), keys.end(), key) == keys.end())
        keys.push_back(key);
}

/**
 * Record every cell's savings in @p numbers under its (pane, row,
 * column) labels and return the panes, their rows and columns in
 * first-encounter order -- the grid's stable expansion order.
 */
std::vector<Pane>
pivot(const std::vector<SweepCellResult> &cells, const PivotSpec &spec,
      ReproNumbers &numbers)
{
    std::vector<Pane> panes;
    for (const SweepCellResult &cell : cells) {
        const std::string label = spec.pane ? spec.pane(cell) : "";
        auto pane = std::find_if(panes.begin(), panes.end(),
                                 [&](const Pane &p) {
                                     return p.label == label;
                                 });
        if (pane == panes.end())
            pane = panes.insert(panes.end(), Pane{label, {}, {}});
        const std::string row = spec.row(cell);
        const std::string col = spec.col(cell);
        appendUnique(pane->rows, row);
        appendUnique(pane->cols, col);
        numbers[{label, row, col}] = cell.savingsPct;
    }
    return panes;
}

using Body = std::function<void(WorkloadScale, unsigned, ReproRun &)>;
using Title = std::function<std::string(const std::string &pane)>;

/**
 * A record body that runs sweep @p preset and prints it pivoted by
 * @p spec: one table per pane, titled title(pane), each followed by a
 * blank line when the spec has panes.
 */
Body
presetBody(const std::string &preset, const PivotSpec &spec,
           const std::string &corner, const Title &title)
{
    return [=](WorkloadScale scale, unsigned jobs, ReproRun &run) {
        const SweepResult sweep =
            runGrid(presetGrid(preset), scale, jobs, run);
        for (const Pane &pane : pivot(sweep.cells, spec, run.numbers)) {
            tableOf(title(pane.label), {corner}, {pane}, run.numbers)
                .print(run.out);
            if (spec.pane)
                run.out << "\n";
        }
    };
}

Title
suffixed(const std::string &suffix)
{
    return [=](const std::string &pane) { return pane + suffix; };
}

std::string
hafLabel(double haf)
{
    return TextTable::num(haf, 2);
}

Labels
ratioLabels(const std::vector<CostRatio> &ratios, bool finite_only = false)
{
    Labels labels;
    for (const CostRatio &ratio : ratios)
        if (!(finite_only && ratio.infinite))
            labels.push_back(ratio.label());
    return labels;
}

// --- per-benchmark studies --------------------------------------------------

/** The paper benchmarks' sampled traces, built on @p jobs workers, in
 *  paperBenchmarks() order. */
std::vector<std::shared_ptr<const SampledTrace>>
paperTraces(WorkloadScale scale, unsigned jobs)
{
    const SweepRunner::TraceMap traces =
        SweepRunner(jobs).buildTraces(paperBenchmarks(), scale);
    std::vector<std::shared_ptr<const SampledTrace>> ordered;
    for (BenchmarkId id : paperBenchmarks())
        ordered.push_back(traces.at(id));
    return ordered;
}

/** fn(b) for every paper benchmark index b, on @p jobs workers. */
void
forEachBenchmark(unsigned jobs, const std::function<void(std::size_t)> &fn)
{
    ThreadPool pool(jobs);
    parallelFor(pool, paperBenchmarks().size(), fn);
}

/** An LRU baseline and the configurations compared against it. */
struct NumaPane
{
    NumaConfig lru; ///< its policy is forced to LRU
    std::vector<NumaConfig> variants;
};

/** One benchmark's runs in one NumaPane. */
struct VsLru
{
    NumaResult lru;
    std::vector<NumaResult> variants;

    /** Execution-time reduction (%) of variant @p v over LRU. */
    double
    reductionPct(std::size_t v) const
    {
        const double base = static_cast<double>(lru.execTimeNs);
        return 100.0 *
               (base - static_cast<double>(variants[v].execTimeNs)) / base;
    }
};

/**
 * Run every benchmark of @p ids under each pane's LRU baseline and
 * variants.  Every run is an independent simulation on its own
 * NUMA-sized workload, fanned out on @p jobs workers.  Result
 * [pane][benchmark].
 */
std::vector<std::vector<VsLru>>
runVsLru(const std::vector<BenchmarkId> &ids, WorkloadScale scale,
         const std::vector<NumaPane> &panes, unsigned jobs)
{
    std::vector<std::vector<VsLru>> out(panes.size(),
                                        std::vector<VsLru>(ids.size()));
    struct Task
    {
        BenchmarkId benchmark;
        NumaConfig config;
        NumaResult *result;
    };
    std::vector<Task> tasks;
    for (std::size_t p = 0; p < panes.size(); ++p) {
        NumaConfig lru = panes[p].lru;
        lru.policy = PolicyKind::Lru;
        for (std::size_t b = 0; b < ids.size(); ++b) {
            VsLru &slot = out[p][b];
            slot.variants.resize(panes[p].variants.size());
            tasks.push_back({ids[b], lru, &slot.lru});
            for (std::size_t v = 0; v < panes[p].variants.size(); ++v)
                tasks.push_back(
                    {ids[b], panes[p].variants[v], &slot.variants[v]});
        }
    }
    ThreadPool pool(jobs);
    parallelFor(pool, tasks.size(), [&](std::size_t i) {
        const Task &task = tasks[i];
        auto workload =
            makeWorkload(task.benchmark, scale, /*numa_sized=*/true);
        NumaSystem sys(task.config, *workload);
        *task.result = sys.run();
    });
    return out;
}

/**
 * DCL's execution-time reduction over LRU as one table: a column per
 * pane of @p results, or per variant when there is one pane.
 */
void
printReductions(const std::string &title,
                const std::vector<std::vector<VsLru>> &results,
                const std::vector<BenchmarkId> &ids, const Labels &cols,
                ReproRun &run)
{
    const Pane pane = {"", benchmarkNames(ids), cols};
    for (std::size_t b = 0; b < ids.size(); ++b)
        for (std::size_t c = 0; c < cols.size(); ++c)
            run.numbers[{"", pane.rows[b], cols[c]}] =
                results.size() == 1 ? results[0][b].reductionPct(c)
                                    : results[c][b].reductionPct(0);
    tableOf(title, {"Benchmark"}, {pane}, run.numbers).print(run.out);
}

// --- Table 1 ----------------------------------------------------------------

void
runTable1(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    const auto traces = paperTraces(scale, jobs);
    TextTable table("Table 1 (measured at this scale; paper remote "
                    "fractions: 44.8 / 19.1 / 7.4 / 29.6 %)");
    table.setHeader({"Benchmark", "# proc", "Mem usage (MB)",
                     "Touched (MB)", "Refs by sampled proc",
                     "Remote access fraction (%)"});
    for (std::size_t b = 0; b < traces.size(); ++b) {
        const std::string name = benchmarkNames()[b];
        const auto workload = makeWorkload(paperBenchmarks()[b], scale);
        const SampledTrace &trace = *traces[b];
        const double mb = 1024.0 * 1024.0;
        const double remote_pct = 100.0 * trace.remoteAccessFraction;
        run.numbers[{"", name, "Remote access fraction (%)"}] =
            remote_pct;
        table.addRow(
            {name, std::to_string(workload->numProcs()),
             TextTable::num(static_cast<double>(workload->memoryBytes()) /
                                mb, 1),
             TextTable::num(static_cast<double>(trace.touchedBytes) / mb,
                            1),
             TextTable::count(trace.sampledRefs),
             TextTable::num(remote_pct, 1)});
    }
    table.print(run.out);
}

// --- Figure 3 ---------------------------------------------------------------

std::string
fig3Pane(BenchmarkId id, PolicyKind kind)
{
    return benchmarkName(id) + " / " + policyKindName(kind);
}

/** One algorithm's Figure 3 curve: savings at (HAF, r) averaged over
 *  the four benchmarks. */
double
fig3Mean(const ReproNumbers &n, PolicyKind kind, const std::string &haf,
         const std::string &ratio)
{
    double sum = 0.0;
    for (BenchmarkId id : paperBenchmarks())
        sum += n.at({fig3Pane(id, kind), haf, ratio});
    return sum / static_cast<double>(paperBenchmarks().size());
}

std::vector<Claim>
fig3Claims()
{
    const SweepGrid grid = presetGrid("fig3");
    const Labels ratios = ratioLabels(grid.ratios);
    const Labels finite = ratioLabels(grid.ratios, /*finite_only=*/true);
    const Labels peak = {"0.10", "0.20", "0.30"};
    return {
        {"savings are exactly 0 at HAF 0 and at HAF 1, in every pane at "
         "every r (uniform costs neutralize the algorithms)",
         [=](const ReproNumbers &n) {
             for (BenchmarkId id : paperBenchmarks())
                 for (PolicyKind kind : paperPolicies())
                     for (const std::string &r : ratios)
                         if (n.at({fig3Pane(id, kind), "0.00", r}) != 0.0 ||
                             n.at({fig3Pane(id, kind), "1.00", r}) != 0.0)
                             return false;
             return true;
         }},
        {"savings peak at HAF 0.1-0.3: for every algorithm, the "
         "benchmark-mean savings summed over the finite r are largest "
         "at a HAF in 0.1-0.3",
         [=](const ReproNumbers &n) {
             return all(paperPolicies(), [&](PolicyKind kind) {
                 std::pair<double, std::string> best = {
                     -std::numeric_limits<double>::max(), ""};
                 for (double haf : grid.hafs) {
                     double sum = 0.0;
                     for (const std::string &r : finite)
                         sum += fig3Mean(n, kind, hafLabel(haf), r);
                     best = std::max(best, {sum, hafLabel(haf)});
                 }
                 return std::count(peak.begin(), peak.end(), best.second);
             });
         }},
        {"savings grow with r and taper: at HAF 0.1-0.3 every "
         "algorithm's benchmark-mean savings rise from r=2 to r=32, and "
         "r=16->32 multiplies them by less than r=4->8 does",
         [=](const ReproNumbers &n) {
             return all(paperPolicies(), [&](PolicyKind kind) {
                 return all(peak, [&](const std::string &haf) {
                     std::vector<double> s; // r = 2, 4, 8, 16, 32
                     for (const std::string &r : finite)
                         s.push_back(fig3Mean(n, kind, haf, r));
                     return std::is_sorted(s.begin(), s.end()) &&
                            s[1] > 0.0 && s[4] / s[3] < s[2] / s[1];
                 });
             });
         }},
        {"r=inf is the upper envelope at HAF >= 0.1: every algorithm's "
         "benchmark-mean r=inf savings are at least those of every "
         "finite r",
         [=](const ReproNumbers &n) {
             for (PolicyKind kind : paperPolicies())
                 for (double haf : grid.hafs)
                     for (const std::string &r : finite)
                         if (haf >= 0.1 &&
                             fig3Mean(n, kind, hafLabel(haf), r) >
                                 fig3Mean(n, kind, hafLabel(haf), "r=inf"))
                             return false;
             return true;
         }},
    };
}

// --- Table 2 ----------------------------------------------------------------

/**
 * Table 2 under the first-touch mapping, plus -- for the claims only,
 * in panes "random <benchmark>" -- the random mapping at each
 * benchmark's own remote access fraction, the HAF at which the paper
 * compares the two mappings.
 */
void
runTable2(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    const auto traces = paperTraces(scale, jobs);
    std::vector<SweepCellResult> cells;
    for (std::size_t b = 0; b < traces.size(); ++b) {
        SweepGrid grid;
        grid.benchmarks = {paperBenchmarks()[b]};
        grid.mappings = {CostMapping::FirstTouch, CostMapping::Random};
        grid.ratios = presetGrid("fig3").ratios;
        grid.hafs = {traces[b]->remoteAccessFraction};
        const SweepResult sweep = runGrid(grid, scale, jobs, run);
        cells.insert(cells.end(), sweep.cells.begin(), sweep.cells.end());
    }
    std::vector<Pane> panes = pivot(
        cells,
        {[](const SweepCellResult &c) {
             return (c.cell.mapping == CostMapping::Random ? "random "
                                                           : "") +
                    benchmarkOf(c);
         },
         policyOf, ratioOf},
        run.numbers);
    std::erase_if(panes, [](const Pane &pane) {
        return pane.label.starts_with("random ");
    });
    tableOf("Table 2 -- relative cost savings over LRU (%)",
            {"Benchmark", "Algorithm"}, panes, run.numbers)
        .print(run.out);
}

/** Whether @p pred holds for every Table 2 value of @p kinds on
 *  benchmark @p pane (r=inf only when @p with_inf). */
bool
table2All(const ReproNumbers &n, const std::string &pane,
          const std::vector<PolicyKind> &kinds, bool with_inf,
          const std::function<bool(double)> &pred)
{
    for (PolicyKind kind : kinds)
        for (const std::string &r :
             ratioLabels(presetGrid("fig3").ratios, !with_inf))
            if (!pred(n.at({pane, policyKindName(kind), r})))
                return false;
    return true;
}

std::vector<Claim>
table2Claims()
{
    return {
        {"first-touch savings are below random-mapping savings at the "
         "same HAF (the benchmark's remote access fraction) for every "
         "algorithm and r, except Raytrace at r >= 16 (documented "
         "overshoot)",
         [](const ReproNumbers &n) {
             for (const std::string &name : benchmarkNames())
                 for (PolicyKind kind : paperPolicies())
                     for (const CostRatio &r : presetGrid("fig3").ratios) {
                         const std::string alg = policyKindName(kind);
                         const bool exempt = name == "Raytrace" &&
                                             (r.infinite || r.high >= 16);
                         if (!exempt &&
                             n.at({name, alg, r.label()}) >=
                                 n.at({"random " + name, alg, r.label()}))
                             return false;
                     }
             return true;
         }},
        {"LU is the pathological case: GD, BCL and DCL lose to LRU at "
         "every finite r",
         [](const ReproNumbers &n) {
             return table2All(n, "LU",
                              {PolicyKind::GreedyDual, PolicyKind::Bcl,
                               PolicyKind::Dcl},
                              false, [](double v) { return v < 0.0; });
         }},
        {"ACL rescues LU: its savings are small but positive at every "
         "finite r",
         [](const ReproNumbers &n) {
             return table2All(n, "LU", {PolicyKind::Acl}, false,
                              [](double v) { return v > 0.0; });
         }},
        {"ACL is never much worse than LRU: above -3% on every "
         "benchmark at every r",
         [](const ReproNumbers &n) {
             return all(benchmarkNames(), [&](const std::string &name) {
                 return table2All(n, name, {PolicyKind::Acl}, true,
                                  [](double v) { return v > -3.0; });
             });
         }},
    };
}

// --- Table 3 ----------------------------------------------------------------

void
runTable3(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    std::vector<LatencyCorrelator> correlators(paperBenchmarks().size());
    forEachBenchmark(jobs, [&](std::size_t b) {
        NumaConfig config;
        config.cycleNs = 1; // report errors in 1 GHz cycles (= ns)
        config.replacementHints = false;
        const auto workload =
            makeWorkload(paperBenchmarks()[b], scale, /*numa_sized=*/true);
        NumaSystem sys(config, *workload);
        sys.run();
        correlators[b] = sys.correlator();
    });

    for (std::size_t b = 0; b < correlators.size(); ++b) {
        const std::string name = benchmarkNames()[b];
        const LatencyCorrelator &corr = correlators[b];
        run.numbers[{name, "", "pairs"}] =
            static_cast<double>(corr.totalPairs());
        run.numbers[{name, "", "matched %"}] = corr.matchedPct();
        run.out << name << ": " << corr.totalPairs()
                << " consecutive-miss pairs, "
                << TextTable::num(corr.matchedPct(), 1)
                << "% with unchanged unloaded latency\n";

        TextTable table(name +
                        " -- occurrence% / mismatch% / avg err (cycles)");
        Labels header = {"last \\ cur"};
        for (int cur = 0; cur < LatencyCorrelator::kClasses; ++cur)
            header.push_back(LatencyCorrelator::className(cur));
        table.setHeader(header);
        for (int last = 0; last < LatencyCorrelator::kClasses; ++last) {
            Labels row = {LatencyCorrelator::className(last)};
            for (int cur = 0; cur < LatencyCorrelator::kClasses; ++cur)
                row.push_back(
                    TextTable::num(corr.occurrencePct(last, cur), 1) +
                    "/" +
                    TextTable::num(corr.cell(last, cur).mismatchPct(),
                                   0) +
                    "/" +
                    TextTable::num(corr.avgErrorCycles(last, cur), 0));
            table.addRow(row);
        }
        table.print(run.out);
        run.out << "\n";
    }
    run.out << "(paper: 93% of misses repeat the previous unloaded "
               "latency across all four benchmarks)\n";
}

// --- Table 5 ----------------------------------------------------------------

struct Table5Variant
{
    const char *label;
    PolicyKind kind;
    unsigned aliasBits;
};

const std::vector<Table5Variant> kTable5Variants = {
    {"GD", PolicyKind::GreedyDual, 0}, {"BCL", PolicyKind::Bcl, 0},
    {"DCL", PolicyKind::Dcl, 0},       {"ACL", PolicyKind::Acl, 0},
    {"DCL alias", PolicyKind::Dcl, 4}, {"ACL alias", PolicyKind::Acl, 4},
};

/** Index of plain DCL in kTable5Variants, whose miss latencies are
 *  shown next to LRU's. */
constexpr std::size_t kTable5Dcl = 2;

void
printTable4(const NumaConfig &config, std::ostream &os)
{
    TextTable table("Table 4: baseline system configuration");
    table.setHeader({"Parameter", "Value"});
    table.addRow({"Nodes", std::to_string(config.numNodes()) + " (" +
                               std::to_string(config.meshCols) + "x" +
                               std::to_string(config.meshRows) +
                               " mesh)"});
    table.addRow({"Active list",
                  std::to_string(config.activeList) + " entries"});
    table.addRow({"L1", "4KB direct-mapped, 64B blocks, 1-cycle"});
    table.addRow({"L2", "16KB 4-way, 8 MSHRs, 64B blocks, 6-cycle"});
    table.addRow({"Main memory",
                  std::to_string(config.memBanks) + "-way interleaved, " +
                      std::to_string(config.memAccessNs) + " ns"});
    table.addRow({"Flit delay", std::to_string(config.flitNs) + " ns"});
    table.addRow({"Coherence", config.replacementHints
                                   ? "MESI with replacement hints"
                                   : "MESI without replacement hints"});
    table.print(os);
    os << "\n";
}

void
runTable5(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    printTable4(NumaConfig{}, run.out);
    std::vector<NumaPane> panes(2);
    panes[0].lru.cycleNs = 2; // 500 MHz
    panes[1].lru.cycleNs = 1; // 1 GHz
    for (NumaPane &pane : panes)
        for (const Table5Variant &variant : kTable5Variants) {
            NumaConfig config = pane.lru;
            config.policy = variant.kind;
            config.policyParams.etdAliasBits = variant.aliasBits;
            pane.variants.push_back(config);
        }
    const auto results = runVsLru(paperBenchmarks(), scale, panes, jobs);

    for (std::size_t p = 0; p < panes.size(); ++p) {
        const std::string freq = p == 0 ? "500MHz" : "1GHz";
        TextTable table(freq +
                        " processor -- execution time reduction (%)");
        Labels header = {"Benchmark", "LRU exec (ms)"};
        for (const Table5Variant &variant : kTable5Variants)
            header.push_back(variant.label);
        table.setHeader(header);

        // The miss-latency distributions of LRU and DCL sit next to
        // the means: the speedups come from shifting them.
        TextTable latency(freq + " miss latency (ns)");
        latency.setHeader(
            {"Series", "Samples", "p50 (ns)", "p90 (ns)", "p99 (ns)"});
        for (std::size_t b = 0; b < results[p].size(); ++b) {
            const std::string name = benchmarkNames()[b];
            const VsLru &res = results[p][b];
            Labels row = {name, TextTable::num(static_cast<double>(
                                                   res.lru.execTimeNs) /
                                                   1e6, 3)};
            for (std::size_t v = 0; v < kTable5Variants.size(); ++v) {
                run.numbers[{freq, name, kTable5Variants[v].label}] =
                    res.reductionPct(v);
                row.push_back(pct(res.reductionPct(v)));
            }
            table.addRow(row);

            const Histogram &dcl = res.variants[kTable5Dcl].missLatencyHist;
            run.histograms.emplace_back(
                "table5." + freq + "." + name + ".miss_latency_ns", dcl);
            for (const auto &[series, hist] :
                 {std::pair{"/LRU", &res.lru.missLatencyHist},
                  std::pair{"/DCL", &dcl}})
                latency.addRow({name + series,
                                TextTable::count(hist->totalCount()),
                                TextTable::num(hist->percentile(0.50), 1),
                                TextTable::num(hist->percentile(0.90), 1),
                                TextTable::num(hist->percentile(0.99), 1)});
        }
        table.print(run.out);
        run.out << "\n";
        latency.print(run.out);
        run.out << "\n";
    }
    run.out << "(paper, 500MHz DCL: Barnes 16.9, LU 3.5, Ocean 8.3, "
               "Raytrace 7.2)\n";
}

std::vector<Claim>
table5Claims()
{
    const auto dcl_gains = [](const char *freq, const Labels &names) {
        return [=](const ReproNumbers &n) {
            return all(names, [&](const std::string &name) {
                return n.at({freq, name, "DCL"}) > 0.0;
            });
        };
    };
    return {
        {"500 MHz: DCL reduces execution time on all four benchmarks",
         dcl_gains("500MHz", benchmarkNames())},
        {"500 MHz: on LU, GD and BCL go slightly negative while DCL and "
         "ACL stay positive",
         [](const ReproNumbers &n) {
             return n.at({"500MHz", "LU", "GD"}) < 0.0 &&
                    n.at({"500MHz", "LU", "BCL"}) < 0.0 &&
                    n.at({"500MHz", "LU", "DCL"}) > 0.0 &&
                    n.at({"500MHz", "LU", "ACL"}) > 0.0;
         }},
        {"500 MHz: 4-bit ETD tag aliasing moves DCL and ACL by at most "
         "2.5 points on every benchmark",
         [](const ReproNumbers &n) {
             for (const std::string &name : benchmarkNames())
                 for (const std::string alg : {"DCL", "ACL"})
                     if (std::abs(n.at({"500MHz", name, alg}) -
                                  n.at({"500MHz", name, alg + " alias"})) >
                         2.5)
                         return false;
             return true;
         }},
        {"1 GHz: DCL reduces execution time on Barnes, LU and Raytrace "
         "(Ocean is the documented bandwidth-bound exception)",
         dcl_gains("1GHz", {"Barnes", "LU", "Raytrace"})},
    };
}

// --- Section 5: hardware overhead -------------------------------------------

void
runHwOverhead(WorkloadScale, unsigned, ReproRun &run)
{
    const HwOverheadParams dynamic; // 25-bit tags, 8-bit cost fields
    HwOverheadParams static_cost = dynamic;
    static_cost.staticCostTable = true;
    HwOverheadParams quantized;
    quantized.fixedCostBits = 2;
    quantized.computedCostBits = 3;
    quantized.etdTagBits = 4;
    const struct
    {
        const char *pane;
        const char *title;
        HwOverheadParams params;
        bool showPercent; ///< the paper gives bits only when quantized
    } scenarios[] = {
        {"dynamic", "Dynamic costs (25-bit tags, 8-bit cost fields)",
         dynamic, true},
        {"static", "Static costs via table lookup", static_cost, true},
        {"quantized",
         "Quantized latency costs (G=60ns, K=8, 4-bit ETD tags)",
         quantized, false},
    };
    for (const auto &scenario : scenarios) {
        TextTable table(scenario.title);
        Labels header = {"Algorithm", "bits/set"};
        if (scenario.showPercent)
            header.push_back("% over LRU");
        table.setHeader(header);
        for (PolicyKind kind : {PolicyKind::Bcl, PolicyKind::GreedyDual,
                                PolicyKind::Dcl, PolicyKind::Acl}) {
            const std::string alg = policyKindName(kind);
            const auto bits = hwOverheadBitsPerSet(kind, scenario.params);
            const double percent = hwOverheadPercent(kind, scenario.params);
            run.numbers[{scenario.pane, alg, "bits/set"}] =
                static_cast<double>(bits);
            run.numbers[{scenario.pane, alg, "% over LRU"}] = percent;
            Labels row = {alg, std::to_string(bits)};
            if (scenario.showPercent)
                row.push_back(pct(percent));
            table.addRow(row);
        }
        table.print(run.out);
        run.out << "\n";
    }
}

/** A claim that every @p column value of @p pane equals the paper's
 *  figure at the paper's precision (one decimal for percentages). */
Claim
matchesPaper(const std::string &text, const std::string &pane,
             const std::string &column, double scale,
             const std::vector<std::pair<std::string, double>> &paper)
{
    return {text, [=](const ReproNumbers &n) {
                return all(paper, [&](const auto &figure) {
                    return std::lround(n.at({pane, figure.first, column}) *
                                       scale) ==
                           std::lround(figure.second * scale);
                });
            }};
}

std::vector<Claim>
hwClaims()
{
    return {
        matchesPaper("quantized-latency example: 11 / 20 / 32 / 35 bits "
                     "per set for BCL / GD / DCL / ACL, exactly",
                     "quantized", "bits/set", 1.0,
                     {{"BCL", 11}, {"GD", 20}, {"DCL", 32}, {"ACL", 35}}),
        matchesPaper("static table-lookup costs: 0.4 / 1.5 / 4.0 / 4.1% "
                     "over LRU for BCL / GD / DCL / ACL, to the paper's "
                     "rounding",
                     "static", "% over LRU", 10.0,
                     {{"BCL", 0.4}, {"GD", 1.5}, {"DCL", 4.0},
                      {"ACL", 4.1}}),
        matchesPaper("dynamic costs: BCL 1.9% and DCL 6.6% over LRU, to "
                     "the paper's rounding",
                     "dynamic", "% over LRU", 10.0,
                     {{"BCL", 1.9}, {"DCL", 6.6}}),
        matchesPaper("dynamic costs: GD 2.7% over LRU, to the paper's "
                     "rounding",
                     "dynamic", "% over LRU", 10.0, {{"GD", 2.7}}),
        matchesPaper("dynamic costs: ACL 6.7% over LRU, to the paper's "
                     "rounding",
                     "dynamic", "% over LRU", 10.0, {{"ACL", 6.7}}),
    };
}

// --- NUMA ablation and extension --------------------------------------------

void
runAblationIlp(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    const std::vector<BenchmarkId> ids = {BenchmarkId::Raytrace,
                                          BenchmarkId::Ocean};
    std::vector<NumaPane> panes;
    Labels labels;
    for (const auto &[mshrs, store_buffer] :
         {std::pair{1u, 1u}, std::pair{4u, 1u}, std::pair{8u, 1u},
          std::pair{8u, 8u}}) {
        NumaPane pane; // 500 MHz
        pane.lru.mshrs = mshrs;
        pane.lru.storeBufferDepth = store_buffer;
        pane.variants = {pane.lru};
        pane.variants[0].policy = PolicyKind::Dcl;
        panes.push_back(pane);
        labels.push_back("mshr=" + std::to_string(mshrs) +
                         ",sb=" + std::to_string(store_buffer));
    }
    printReductions("DCL execution-time reduction over LRU (%)",
                    runVsLru(ids, scale, panes, jobs), ids, labels, run);
}

void
runExtensionPenalty(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    NumaPane pane; // 500 MHz
    Labels labels;
    for (double weight : {1.0, 0.6, 0.3}) {
        NumaConfig dcl;
        dcl.policy = PolicyKind::Dcl;
        dcl.storeCostWeight = weight;
        pane.variants.push_back(dcl);
        labels.push_back("w=" + TextTable::num(weight, 1));
    }
    printReductions("DCL execution-time reduction over LRU (%) by store "
                    "cost weight",
                    runVsLru(paperBenchmarks(), scale, {pane}, jobs),
                    paperBenchmarks(), labels, run);
}

// --- Trace-study extensions and analysis ------------------------------------

void
runOfflineBound(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    const std::vector<std::pair<std::string, PolicyKind>> columns = {
        {"DCL", PolicyKind::Dcl},
        {"ACL", PolicyKind::Acl},
        {"OPT (miss count)", PolicyKind::Opt},
        {"CostOPT~ (greedy oracle)", PolicyKind::CostOpt},
    };
    const auto traces = paperTraces(scale, jobs);
    std::vector<std::vector<double>> savings(traces.size());
    forEachBenchmark(jobs, [&](std::size_t b) {
        TraceSimConfig config;
        config.useL1 = false;
        const TraceStudy study(*traces[b], config);
        const FirstTouchTwoCost model(CostRatio::finite(4),
                                      traces[b]->homeOf,
                                      traces[b]->sampledProc);
        for (const auto &column : columns)
            savings[b].push_back(study.savingsPct(column.second, model));
    });
    Pane pane = {"", benchmarkNames(), {}};
    for (std::size_t c = 0; c < columns.size(); ++c) {
        pane.cols.push_back(columns[c].first);
        for (std::size_t b = 0; b < traces.size(); ++b)
            run.numbers[{"", pane.rows[b], columns[c].first}] =
                savings[b][c];
    }
    tableOf("Savings over LRU (%), L2-only", {"Benchmark"}, {pane},
            run.numbers)
        .print(run.out);
    run.out << "\n(the oracles bound what any online policy could "
               "reach; CostOPT~ is a greedy heuristic, not the true "
               "CSOPT)\n";
}

void
runExtensionMigration(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    // Hotness thresholds: migrate blocks with >= N sampled accesses.
    const std::uint64_t none = std::numeric_limits<std::uint64_t>::max();
    const std::vector<std::uint64_t> thresholds = {none, 256, 64, 16};
    const auto traces = paperTraces(scale, jobs);
    // [benchmark][threshold] = (savings, residual remote %)
    std::vector<std::vector<std::pair<double, double>>> points(
        traces.size());
    forEachBenchmark(jobs, [&](std::size_t b) {
        const TraceStudy study(*traces[b]);
        for (std::uint64_t threshold : thresholds) {
            MigrationOutcome outcome;
            const TableCost model = buildMigratedCostModel(
                *traces[b], CostRatio::finite(4), threshold, &outcome);
            points[b].emplace_back(
                study.savingsPct(PolicyKind::Dcl, model),
                100.0 * outcome.residualRemoteFraction);
        }
    });

    TextTable table("DCL savings over LRU (%) and residual remote "
                    "fraction, by migration threshold");
    Labels header = {"Benchmark"};
    for (std::uint64_t threshold : thresholds)
        header.push_back(threshold == none
                             ? "none"
                             : ">=" + std::to_string(threshold));
    table.setHeader(header);
    for (std::size_t b = 0; b < traces.size(); ++b) {
        Labels row = {benchmarkNames()[b]};
        for (std::size_t t = 0; t < thresholds.size(); ++t) {
            const auto [savings, remote] = points[b][t];
            run.numbers[{"savings", row[0], header[t + 1]}] = savings;
            run.numbers[{"residual remote %", row[0], header[t + 1]}] =
                remote;
            row.push_back(pct(savings) + " (rem " +
                          TextTable::num(remote, 1) + "%)");
        }
        table.addRow(row);
    }
    table.print(run.out);
    run.out << "\n(the more migration removes, the less is left for "
               "replacement to save --\n the mechanisms are "
               "complementary consumers of remote-miss cost)\n";
}

void
runStackDistance(WorkloadScale scale, unsigned jobs, ReproRun &run)
{
    const auto traces = paperTraces(scale, jobs);
    std::vector<StackDistanceReport> reports(traces.size());
    forEachBenchmark(jobs, [&](std::size_t b) {
        reports[b] = profileStackDistances(*traces[b],
                                           CacheGeometry(16 * 1024, 4, 64));
    });

    const Labels bands = {"1-4 (LRU hit)", "5-12 (band)", "13-64",
                          "cold/deep"};
    std::vector<Pane> panes;
    for (std::size_t b = 0; b < reports.size(); ++b) {
        panes.push_back({benchmarkNames()[b], {"local", "remote"}, bands});
        for (const auto &[cls, profile] :
             {std::pair{"local", &reports[b].local},
              std::pair{"remote", &reports[b].remote}}) {
            const double hits = profile->hitFraction(4);
            const double band = profile->fractionInBand(5, 12);
            const double deep = profile->fractionInBand(13, 64);
            const double cold =
                profile->total ? 1.0 - hits - band - deep : 0.0;
            const double mass[] = {hits, band, deep, cold};
            for (std::size_t i = 0; i < bands.size(); ++i)
                run.numbers[{panes.back().label, cls, bands[i]}] =
                    100 * mass[i];
        }
    }
    tableOf("access mass (%) by per-set stack distance",
            {"Benchmark", "Class"}, panes, run.numbers, 1)
        .print(run.out);
    run.out << "\n(remote band mass is the raw material of "
               "reservations; local band mass is what failed "
               "reservations sacrifice)\n";
}

} // namespace

const std::vector<Reproduction> &
reproductions()
{
    static const std::vector<Reproduction> records = {
        {"table1", "Table 1: benchmark characteristics", false, runTable1,
         {}},
        {"fig3", "Figure 3: relative cost savings, random cost mapping",
         false,
         presetBody("fig3",
                    {[](const SweepCellResult &c) {
                         return fig3Pane(c.cell.benchmark, c.cell.policy);
                     },
                     [](const SweepCellResult &c) {
                         return hafLabel(c.cell.haf);
                     },
                     ratioOf},
                    "HAF",
                    suffixed(" -- relative cost savings over LRU (%)")),
         fig3Claims()},
        {"table2",
         "Table 2: relative cost savings, first-touch cost mapping", false,
         runTable2, table2Claims()},
        {"table3",
         "Table 3: consecutive-miss latency correlation (protocol "
         "without replacement hints)",
         false, runTable3,
         {{"latency stability dominates: every benchmark has more than "
           "100 consecutive-miss pairs, over 60% of them with unchanged "
           "unloaded latency",
           [](const ReproNumbers &n) {
               return all(benchmarkNames(), [&](const std::string &name) {
                   return n.at({name, "", "pairs"}) > 100.0 &&
                          n.at({name, "", "matched %"}) > 60.0;
               });
           }}}},
        {"table5", "Table 5: execution-time reduction over LRU (%)", false,
         runTable5, table5Claims()},
        {"hw-overhead", "Section 5: hardware overhead over LRU", true,
         runHwOverhead, hwClaims()},
        {"ablation-assoc", "Ablation: L2 associativity (DCL, r=4)", false,
         presetBody("ablation-assoc",
                    {[](const SweepCellResult &c) {
                         return costMappingName(c.cell.mapping);
                     },
                     benchmarkOf,
                     [](const SweepCellResult &c) {
                         return std::to_string(c.cell.l2Assoc) + "-way";
                     }},
                    "Benchmark",
                    [](const std::string &pane) {
                        return std::string("DCL savings over LRU (%) -- ") +
                               (pane == costMappingName(CostMapping::Random)
                                    ? "random mapping, HAF=0.3"
                                    : "first-touch mapping");
                    }),
         {}},
        {"ablation-cachesize",
         "Ablation: L2 capacity (DCL, first touch, r=4)", false,
         presetBody("ablation-cachesize",
                    {{},
                     benchmarkOf,
                     [](const SweepCellResult &c) {
                         return std::to_string(c.cell.l2Bytes / 1024) +
                                "KB";
                     }},
                    "Benchmark", suffixed("DCL savings over LRU (%)")),
         {}},
        {"ablation-depreciation",
         "Ablation: Acost depreciation factor (first touch, r=4)", false,
         presetBody("ablation-depreciation",
                    {policyOf, benchmarkOf,
                     [](const SweepCellResult &c) {
                         // Append: "x" + num() prepends to a temporary,
                         // which trips GCC 12's false -Wrestrict.
                         std::string label = "x";
                         label += TextTable::num(c.cell.depreciationFactor,
                                                 1);
                         return label;
                     }},
                    "Benchmark",
                    suffixed(" -- savings over LRU (%) by depreciation "
                             "factor")),
         {}},
        {"ablation-etd", "Ablation: ETD tag aliasing (first touch, r=4)",
         false,
         presetBody("ablation-etd",
                    {policyOf, benchmarkOf,
                     [](const SweepCellResult &c) {
                         return c.cell.etdAliasBits == 0
                                    ? std::string("full")
                                    : std::to_string(c.cell.etdAliasBits) +
                                          "b";
                     }},
                    "Benchmark",
                    suffixed(" -- savings over LRU (%) by ETD tag width")),
         {}},
        {"ablation-ilp",
         "Ablation: MLP vs execution-time savings (DCL, 500MHz)", false,
         runAblationIlp, {}},
        {"offline-bound",
         "Offline bounds (L2-only hierarchy, first touch, r=4)", false,
         runOfflineBound, {}},
        {"extension-penalty",
         "Extension: store-penalty-weighted costs (DCL, 500MHz)", false,
         runExtensionPenalty, {}},
        {"extension-migration",
         "Extension: page migration vs cost-sensitive replacement (DCL, "
         "r=4)",
         false, runExtensionMigration, {}},
        {"analysis-stack-distance",
         "Analysis: per-set stack distances by cost class (16KB 4-way L2 "
         "geometry)",
         false, runStackDistance, {}},
    };
    return records;
}

std::string
reproductionNames()
{
    std::string names;
    for (const Reproduction &record : reproductions())
        names += record.name + " ";
    return names + "all";
}

const Reproduction &
findReproduction(const std::string &name)
{
    for (const Reproduction &record : reproductions())
        if (record.name == name)
            return record;
    throw ConfigError("unknown reproduction '" + name +
                      "' (valid: " + reproductionNames() + ")");
}

void
runReproduction(const Reproduction &record, WorkloadScale scale,
                unsigned jobs, ReproRun &run)
{
    printBanner(run.out, record.title,
                record.scaleFree ? WorkloadScale::Small : scale);
    record.body(scale, jobs, run);
}

} // namespace csr
