/**
 * @file
 * Consecutive-miss latency correlation (the paper's Table 3).
 *
 * For every serviced miss the directory reports (requester, block,
 * request type, directory state at arrival, unloaded class latency).
 * The correlator pairs each miss with the *previous* miss to the same
 * block by the same processor and accumulates a matrix indexed by
 * (last miss attributes) x (current miss attributes), where the
 * attributes are request type {read, rd-excl} and memory state
 * {Uncached, Shared, Exclusive}.  Per cell it reports:
 *   - occurrence  (% of all paired misses),
 *   - mismatch    (% of the cell's pairs whose unloaded latencies
 *                  differ),
 *   - avg |error| (mean absolute unloaded-latency difference of the
 *                  mismatching pairs, in processor cycles).
 */

#ifndef CSR_NUMA_LATENCYCORRELATOR_H
#define CSR_NUMA_LATENCYCORRELATOR_H

#include <array>
#include <cstdint>

#include "numa/Directory.h"
#include "util/FlatMap.h"

namespace csr
{

/** Accumulates the Table 3 matrix. */
class LatencyCorrelator
{
  public:
    /** Attribute index: type (0=read, 1=rd-excl) x state (U/S/E). */
    static constexpr int kClasses = 6;

    explicit LatencyCorrelator(std::uint32_t cycle_ns = 1)
        : cycleNs_(cycle_ns)
    {
    }

    /** Feed one serviced miss. */
    void observe(const MissService &service);

    /** Matrix cell accumulator. */
    struct Cell
    {
        std::uint64_t count = 0;
        std::uint64_t mismatches = 0;
        double absErrorNs = 0.0; // accumulated over mismatching pairs

        double
        mismatchPct() const
        {
            return count ? 100.0 * static_cast<double>(mismatches) /
                               static_cast<double>(count)
                         : 0.0;
        }
    };

    const Cell &cell(int last, int cur) const { return cells_[last][cur]; }

    /** Total paired misses. */
    std::uint64_t totalPairs() const { return totalPairs_; }

    /** Occurrence of a cell as % of all paired misses. */
    double
    occurrencePct(int last, int cur) const
    {
        return totalPairs_
                   ? 100.0 *
                         static_cast<double>(cells_[last][cur].count) /
                         static_cast<double>(totalPairs_)
                   : 0.0;
    }

    /** Average absolute latency error of a cell, in cycles. */
    double
    avgErrorCycles(int last, int cur) const
    {
        const Cell &c = cells_[last][cur];
        if (c.mismatches == 0)
            return 0.0;
        return c.absErrorNs /
               (static_cast<double>(c.mismatches) * cycleNs_);
    }

    /** Fraction of paired misses whose latency class matched (the
     *  paper's "93% of misses" headline). */
    double matchedPct() const;

    /** Class index of a miss (type, state). */
    static int classOf(bool write, DirEntry::State state);

    /** Row/column label ("rd/U", "rdx/S", ...). */
    static const char *className(int cls);

  private:
    struct LastMiss
    {
        int cls = -1; ///< -1: no miss seen yet
        Tick unloaded = 0;
    };

    std::uint32_t cycleNs_;
    std::array<std::array<Cell, kClasses>, kClasses> cells_{};
    FlatMap<LastMiss> last_;
    std::uint64_t totalPairs_ = 0;
};

} // namespace csr

#endif // CSR_NUMA_LATENCYCORRELATOR_H
