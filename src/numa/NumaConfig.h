/**
 * @file
 * CC-NUMA system configuration -- the paper's Table 4 baseline.
 *
 * All times are in nanoseconds (1 tick == 1 ns).  Processor-cycle
 * quantities scale with the clock: 1 GHz => 1 ns/cycle, 500 MHz =>
 * 2 ns/cycle, which is exactly how the paper's two processor speeds
 * change the relative weight of memory latency.
 */

#ifndef CSR_NUMA_NUMACONFIG_H
#define CSR_NUMA_NUMACONFIG_H

#include <cstdint>

#include "cache/PolicyFactory.h"
#include "util/Types.h"

namespace csr
{

/** Full system configuration (defaults follow Table 4). */
struct NumaConfig
{
    // --- topology ---------------------------------------------------------
    std::uint32_t meshCols = 4;          ///< 4x4 mesh
    std::uint32_t meshRows = 4;
    /** Number of nodes = meshCols * meshRows. */
    std::uint32_t numNodes() const { return meshCols * meshRows; }

    // --- processor --------------------------------------------------------
    /** Nanoseconds per processor cycle (1 = 1 GHz, 2 = 500 MHz). */
    std::uint32_t cycleNs = 2;
    /** Active-list run-ahead: ops the core may issue past the oldest
     *  outstanding miss (Table 4: 64-entry active list). */
    std::uint32_t activeList = 64;
    /** Outstanding misses per processor (Table 4: 8 L2 MSHRs). */
    std::uint32_t mshrs = 8;
    /** Outstanding *write* misses the core tolerates before it
     *  stalls.  Depth 1 approximates RSIM's sequential-consistency
     *  store serialization; the default of 8 (= the MSHR count, i.e.
     *  unconstrained) matches the paper's relative results best and
     *  is swept by the ablation-ilp reproduction record. */
    std::uint32_t storeBufferDepth = 8;

    // --- caches -----------------------------------------------------------
    std::uint64_t l1Bytes = 4 * 1024;    ///< direct-mapped
    std::uint64_t l2Bytes = 16 * 1024;   ///< 4-way
    std::uint32_t l2Assoc = 4;
    std::uint32_t blockBytes = 64;
    std::uint32_t l1HitCycles = 1;
    std::uint32_t l2HitCycles = 6;

    // --- memory & directory -------------------------------------------------
    Tick memAccessNs = 60;               ///< DRAM access (Table 4)
    std::uint32_t memBanks = 4;          ///< 4-way interleaved
    Tick dirProcessNs = 14;              ///< directory/controller occupancy
    Tick localBusNs = 14;                ///< L2 <-> local node crossing

    // --- network ------------------------------------------------------------
    Tick flitNs = 6;                     ///< per-flit link delay (Table 4)
    Tick routerNs = 8;                   ///< per-hop routing latency
    Tick nicNs = 42;                     ///< network interface crossing
    std::uint32_t ctrlFlits = 1;         ///< header-only message
    std::uint32_t dataFlits = 9;         ///< header + 64 B on 64-bit links

    // --- protocol & policy ----------------------------------------------------
    /** MESI with replacement hints (Table 4).  Table 3's latency
     *  correlation study runs with hints off. */
    bool replacementHints = true;
    /** L2 replacement policy under test. */
    PolicyKind policy = PolicyKind::Lru;
    PolicyParams policyParams = {};
    /** Default miss-latency prediction for never-missed blocks (ns);
     *  roughly the local clean latency. */
    Cost defaultPredictedLatency = 120.0;
    /** Weight applied to the measured latency of *write* misses when
     *  it becomes the block's replacement cost.  1.0 reproduces the
     *  paper's latency cost function; values < 1 implement the
     *  Section 7 penalty idea that buffered stores hurt less than
     *  loads, so blocks that miss on stores are cheaper to evict. */
    double storeCostWeight = 1.0;

    // --- robustness -----------------------------------------------------------
    /** Hard budget on simulated time (--max-cycles); 0 = unlimited.
     *  Exceeding it raises SimulationStallError with a diagnostic
     *  snapshot instead of running forever. */
    Tick maxSimNs = 0;
    /** Stall watchdog window (--stall-window): if no processor
     *  retires an op and no miss completes for this much simulated
     *  time, the run is declared stalled.  0 disables the watchdog. */
    Tick stallWindowNs = 10'000'000;
    /** Run the coherence invariant check every N events (--validate);
     *  0 checks only at end of run. */
    std::uint64_t validateEveryEvents = 0;

    /** Convenience: ns for n processor cycles. */
    Tick cycles(std::uint32_t n) const { return Tick{n} * cycleNs; }
};

} // namespace csr

#endif // CSR_NUMA_NUMACONFIG_H
