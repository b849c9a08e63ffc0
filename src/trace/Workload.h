/**
 * @file
 * Synthetic multiprocessor workload interfaces.
 *
 * The paper evaluates on four SPLASH-2 benchmarks (Barnes, LU, Ocean,
 * Raytrace).  We do not have the original traces or a SPARC
 * execution environment, so each benchmark is substituted by a
 * generator that reproduces the documented *access structure* --
 * working sets, sharing pattern, irregularity and the remote-access
 * fraction of Table 1 -- which is everything a replacement policy can
 * observe.  See DESIGN.md ("Substitutions") for the faithfulness
 * argument.
 *
 * A workload describes P cooperating processors.  Each processor's
 * access sequence is exposed as an independent, deterministic
 * ProcAccessStream so the same workload object can feed
 *   - the trace-driven study (streams interleaved by
 *     SampledTraceBuilder, then filtered to the sampled processor's
 *     accesses plus remote writes), and
 *   - the execution-driven NUMA simulator (each simulated processor
 *     pulls from its own stream at its own pace).
 */

#ifndef CSR_TRACE_WORKLOAD_H
#define CSR_TRACE_WORKLOAD_H

#include <cstdint>
#include <memory>
#include <string>

#include "trace/TraceRecord.h"
#include "util/Types.h"

namespace csr
{

/**
 * Problem-size presets.
 *
 *  - Test:   seconds-long unit-test scale;
 *  - Small:  the default bench scale (~10^5..10^6 sampled refs), used
 *            for the table/figure reproductions;
 *  - Full:   the paper's trace-study scale (tens of millions of
 *            references); expect multi-minute bench runs.
 */
enum class WorkloadScale
{
    Test,
    Small,
    Full,
};

/** Parse "test" / "small" / "full" (case-insensitive); throws
 *  ConfigError naming the valid scales on anything else. */
WorkloadScale parseScale(const std::string &name);

/** "test", "small" or "full". */
const char *scaleName(WorkloadScale scale);

/**
 * Uniform construction parameters for every benchmark.
 *
 * The four *Workload classes used to be configured through four
 * unrelated Params ctor signatures; the factory (and any direct
 * caller) now describes a workload with one WorkloadConfig.  The
 * override fields treat zero as "keep the benchmark's default".
 */
struct WorkloadConfig
{
    /** Benchmark name ("barnes", "lu", "ocean", "raytrace"). */
    std::string name = "barnes";
    /** Processor count override (0 = the benchmark's Table 1 count). */
    ProcId numProcs = 0;
    /** Generator seed override (0 = the benchmark's fixed seed). */
    std::uint64_t seed = 0;
    WorkloadScale scale = WorkloadScale::Small;
    /** Section 4.2 problem shrink for the NUMA study. */
    bool numaSized = false;
    /** Reference budget override (0 = derived from scale). */
    std::uint64_t targetRefsPerProc = 0;
};

/**
 * Apply the uniform WorkloadConfig overrides to any benchmark Params
 * type (all four have numProcs / seed / targetRefsPerProc fields).
 */
template <typename Params>
Params
applyWorkloadConfig(Params params, const WorkloadConfig &config)
{
    if (config.numProcs)
        params.numProcs = config.numProcs;
    if (config.seed)
        params.seed = config.seed;
    if (config.targetRefsPerProc)
        params.targetRefsPerProc = config.targetRefsPerProc;
    return params;
}

/** A single processor's deterministic access sequence. */
class ProcAccessStream
{
  public:
    virtual ~ProcAccessStream() = default;

    /**
     * Produce the next access of this processor.
     * @return false when the processor's program is finished.
     */
    virtual bool next(MemAccess &out) = 0;
};

/**
 * A P-processor synthetic program.
 *
 * Streams returned by procStream() are deterministic functions of
 * (workload parameters, seed, proc), so any subset can be regenerated
 * independently and concurrently.
 */
class SyntheticWorkload
{
  public:
    virtual ~SyntheticWorkload() = default;

    /** Benchmark name ("barnes", "lu", "ocean", "raytrace"). */
    virtual std::string name() const = 0;

    /** Number of cooperating processors. */
    virtual ProcId numProcs() const = 0;

    /** Total bytes of shared data touched (Table 1 "Mem. usage"). */
    virtual std::uint64_t memoryBytes() const = 0;

    /** Fresh stream of processor @p p's accesses, from the start. */
    virtual std::unique_ptr<ProcAccessStream> procStream(ProcId p) const = 0;
};

} // namespace csr

#endif // CSR_TRACE_WORKLOAD_H
