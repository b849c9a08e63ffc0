/**
 * @file
 * The three workloads of the libcsr benchmark and what they share.
 *
 *   paper-sim  the paper's own experiments: SPLASH-2-like traces
 *              through TraceSimulator and a CC-NUMA LRU/DCL pair;
 *   kv-inproc  one recorded Zipfian .csrt stream through
 *              replay::replayTrace (five policies) and an ACL
 *              CacheService;
 *   kv-wire    the same stream over loopback RESP to a NetServer,
 *              closed loop then open loop.
 *
 * Each workload sets up from the seed, measures for the requested
 * seconds, checks its outputs, and fills an Outcome.  The canonical
 * text of its deterministic counters is returned too: run.py
 * compares its digest with the value pinned for the seed.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "Measure.h"

namespace perfbench
{

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end run. */
    bool trace = false;
    /** Only compute the deterministic counters (pin generation). */
    bool countersOnly = false;
    /** Scratch directory for the recorded stream and the trace. */
    std::string workDir = ".";
};

/** What one run produced. */
struct Outcome
{
    Report report;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Every correctness failure, one line each. */
    std::vector<std::string> problems;
    /** Canonical text of the deterministic counters. */
    std::string counters;
    /** Context printed with the report (reference values). */
    std::vector<std::string> notes;

    bool correct() const { return problems.empty(); }

    /** Record a failed check; it also counts as a failed op. */
    void
    fail(const std::string &why)
    {
        problems.push_back(why);
        ++failed;
    }
};

/**
 * The cache.* per-layer counters, summed from the policies'
 * StatGroups (counter names as the policies register them).
 */
void reportPolicyCounters(
    Report &report, const std::map<std::string, std::uint64_t> &summed);

/** Metric-name form of a policy name ("ACL" -> "acl"). */
std::string metricName(std::string policy);

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 7;

void runPaperSim(const RunArgs &args, SpanRecorder &spans, Outcome &out);
void runKvInproc(const RunArgs &args, SpanRecorder &spans, Outcome &out);
void runKvWire(const RunArgs &args, SpanRecorder &spans, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
