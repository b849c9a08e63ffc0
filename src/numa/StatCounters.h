/**
 * @file
 * Enum-indexed event counters for the CC-NUMA components.
 *
 * A component counts into a flat array indexed by its own stat enum
 * and marks each counter it touches; it folds the touched ones into
 * its named StatGroup only when someone reads the stats.  A StatGroup
 * increment creates its key even when it adds 0, so the touched bit
 * (not a nonzero value) decides which names appear.
 */

#ifndef CSR_NUMA_STATCOUNTERS_H
#define CSR_NUMA_STATCOUNTERS_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/Stats.h"

namespace csr
{

/** @p N counters named by a caller-owned array of N names. */
template <std::size_t N>
class StatCounters
{
    static_assert(N <= 64, "one touched bit per counter");

  public:
    explicit StatCounters(const char *const (&names)[N]) : names_(names) {}

    void
    inc(std::size_t stat, std::uint64_t by = 1)
    {
        values_[stat] += by;
        touched_ |= std::uint64_t{1} << stat;
    }

    /** Add every touched counter to @p group under its name and
     *  start counting from zero again. */
    void
    foldInto(StatGroup &group)
    {
        for (std::size_t i = 0; i < N; ++i) {
            if (touched_ & (std::uint64_t{1} << i)) {
                group.inc(names_[i], values_[i]);
                values_[i] = 0;
            }
        }
        touched_ = 0;
    }

  private:
    const char *const *names_;
    std::array<std::uint64_t, N> values_{};
    std::uint64_t touched_ = 0;
};

} // namespace csr

#endif // CSR_NUMA_STATCOUNTERS_H
