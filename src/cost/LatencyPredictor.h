/**
 * @file
 * Miss-latency prediction (Section 4.1).
 *
 * The paper's predictor is deliberately trivial: "we simply use the
 * last measured miss latency to predict the future miss latency to
 * the same block by the same processor", justified by Table 3 (93% of
 * consecutive misses to the same block have identical unloaded
 * latency).  Latency is measured by timestamping requests and taking
 * the difference when the data becomes available.
 *
 * One predictor instance lives in each node; the "same processor"
 * scoping falls out of that placement.
 */

#ifndef CSR_COST_LATENCYPREDICTOR_H
#define CSR_COST_LATENCYPREDICTOR_H

#include <cstdint>

#include "util/FlatMap.h"
#include "util/Types.h"

namespace csr
{

/**
 * Last-value miss-latency predictor.
 *
 * The table is unbounded in this model; a hardware realization would
 * piggyback the value on the cache line / a small tagged table, which
 * only changes capacity effects, not the mechanism (Section 5
 * discusses quantizing the stored costs).
 */
class LatencyPredictor
{
  public:
    /** @param default_latency prediction for never-missed blocks
     *  (the local clean latency is a sensible choice). */
    explicit LatencyPredictor(Cost default_latency)
        : defaultLatency_(default_latency)
    {
    }

    /** Record a measured miss latency for a block. */
    void
    update(Addr block_addr, Cost measured_latency)
    {
        table_[block_addr] = measured_latency;
        ++updates_;
    }

    /** Predicted next miss latency for a block. */
    Cost
    predict(Addr block_addr) const
    {
        const Cost *last = table_.find(block_addr);
        return last ? *last : defaultLatency_;
    }

    /** True if the block has a recorded history. */
    bool
    known(Addr block_addr) const
    {
        return table_.find(block_addr) != nullptr;
    }

    std::uint64_t updates() const { return updates_; }
    std::size_t tableSize() const { return table_.size(); }

    void
    reset()
    {
        table_ = FlatMap<Cost>{};
        updates_ = 0;
    }

  private:
    Cost defaultLatency_;
    FlatMap<Cost> table_;
    std::uint64_t updates_ = 0;
};

} // namespace csr

#endif // CSR_COST_LATENCYPREDICTOR_H
