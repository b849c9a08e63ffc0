/**
 * @file
 * The paper's evidence as declarative records.
 *
 * Every table and figure the repository reproduces (Table 1, Figure
 * 3, Tables 2, 3 and 5, the Section 5 hardware arithmetic, the
 * ablations and the extensions) is one Reproduction record: a name, a
 * banner title, a body that prints the tables and keeps the numbers
 * behind them, and the paper's claims as predicates over those
 * numbers -- never over printed text.  Two consumers read the same
 * registry: `csrsim reproduce` prints the tables (stdout) and each
 * claim's verdict (stderr), and tests/test_paper_claims.cc asserts
 * the claims at test scale.  Bodies fan their independent simulations
 * out on `jobs` workers and print in a fixed order, so stdout does
 * not depend on the worker count.
 */

#ifndef CSR_SIM_REPRODUCTION_H
#define CSR_SIM_REPRODUCTION_H

#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "trace/Workload.h"
#include "util/Stats.h"

namespace csr
{

/**
 * The numbers behind a record's tables, keyed by (pane, row, column)
 * labels -- the labels the tables print, with "" for a record's only
 * pane.  Records also keep numbers they do not print when a claim
 * needs them (e.g. Table 2's random-mapping comparison).  A claim
 * reading a key the record did not produce gets std::out_of_range.
 */
using ReproNumbers =
    std::map<std::tuple<std::string, std::string, std::string>, double>;

/** Everything one run of a record produces. */
struct ReproRun
{
    std::ostringstream out; ///< stdout: banner and tables
    std::ostringstream log; ///< stderr: sweep timing
    ReproNumbers numbers;
    /** --metrics histograms by name (Table 5's miss latencies). */
    std::vector<std::pair<std::string, Histogram>> histograms;
};

/** One claim of the paper, as a predicate over a record's numbers. */
struct Claim
{
    std::string text;
    std::function<bool(const ReproNumbers &)> holds;
};

/** One table or figure of the paper. */
struct Reproduction
{
    std::string name;  ///< `csrsim reproduce --name` key
    std::string title; ///< banner line
    /** Simulates nothing, so the banner names the default scale
     *  whatever --scale says (the Section 5 arithmetic). */
    bool scaleFree = false;
    /** Prints the tables to run.out and fills run.numbers. */
    std::function<void(WorkloadScale scale, unsigned jobs, ReproRun &run)>
        body;
    std::vector<Claim> claims;
};

/** Every record, in `csrsim reproduce --name all` order. */
const std::vector<Reproduction> &reproductions();

/** Every record name plus "all", space-separated. */
std::string reproductionNames();

/** The record called @p name; ConfigError listing the valid names
 *  otherwise. */
const Reproduction &findReproduction(const std::string &name);

/** Banner, then the record's body, at @p scale on @p jobs workers
 *  (0 = one per hardware thread). */
void runReproduction(const Reproduction &record, WorkloadScale scale,
                     unsigned jobs, ReproRun &run);

/** The "### title / ### scale=..." banner every reproduction and
 *  bench prints first. */
void printBanner(std::ostream &os, const std::string &title,
                 WorkloadScale scale);

} // namespace csr

#endif // CSR_SIM_REPRODUCTION_H
