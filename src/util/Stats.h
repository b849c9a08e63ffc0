/**
 * @file
 * Lightweight statistics accumulators.
 *
 * The simulators accumulate large numbers of per-event samples (miss
 * latencies, reservation outcomes, per-set activity).  These helpers
 * provide numerically stable means/variances, log-linear histograms
 * and a named-counter registry that benches can dump uniformly.
 */

#ifndef CSR_UTIL_STATS_H
#define CSR_UTIL_STATS_H

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace csr
{

/**
 * Running mean / variance via Welford's algorithm plus min/max.
 */
class RunningStat
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Merge another accumulator into this one (parallel reduction). */
    void merge(const RunningStat &other);

    /** Remove all samples. */
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Population variance (0 when fewer than 2 samples). */
    double variance() const;
    double stddev() const;
    double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Log-linear (HDR-style) histogram of non-negative integers, e.g.
 * latencies in nanoseconds.  Values below 128 have a bucket each;
 * above that every power of two [2^e, 2^(e+1)) is split into 64
 * equal sub-buckets, so a bucket is never wider than 1/64 of its
 * lower edge and a percentile reported at its midpoint is within
 * 1/128 (0.8%) of the exact order statistic.  There is no upper
 * bound and no shape to choose: any two histograms merge.  Exact
 * min and max are kept, so p0 and p100 are exact.
 *
 * Buckets are allocated up to the highest one seen, so an add()
 * into an already covered range allocates nothing.
 */
class Histogram
{
  public:
    void add(std::uint64_t value)
    {
        const std::size_t idx = bucketOf(value);
        if (idx >= counts_.size())
            grow(idx);
        ++counts_[idx];
        ++total_;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }

    /** Add every sample of @p other (parallel reduction). */
    void merge(const Histogram &other);

    /** Buckets allocated so far (all buckets past these are empty). */
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    /** Smallest value that lands in bucket @p i. */
    static std::uint64_t bucketLo(std::size_t i);

    std::uint64_t totalCount() const { return total_; }
    /** Exact extremes (0 when empty). */
    std::uint64_t min() const { return total_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    /** The nearest-rank order statistic at @p frac (clamped to
     *  [0,1]): the sample of 1-based rank max(1, ceil(frac * n)).
     *  p0 and p100 are the exact min and max; in between it is the
     *  midpoint of the bucket holding that sample, within 1% of it.
     *  An empty histogram reports 0. */
    double percentile(double frac) const;

  private:
    /** 2^kSubBits sub-buckets per power of two. */
    static constexpr unsigned kSubBits = 6;

    static std::size_t bucketOf(std::uint64_t v)
    {
        if (v < (2u << kSubBits))
            return static_cast<std::size_t>(v);
        const unsigned shift =
            static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
        return (static_cast<std::size_t>(shift) << kSubBits) +
               static_cast<std::size_t>(v >> shift);
    }

    /** add()'s cold path: extend counts_ to cover bucket @p idx. */
    void grow(std::size_t idx);

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * A registry of named 64-bit counters.  Components register counters
 * by dotted path ("l2.miss", "l2.reservation.success") and benches dump
 * them all at once; lookup is by map so registration order does not
 * matter.
 */
class StatGroup
{
  public:
    /** Increment (creating at zero if absent).  Heterogeneous lookup:
     *  incrementing an existing counter never materializes a
     *  std::string, so hot simulator paths do not allocate. */
    void inc(std::string_view name, std::uint64_t by = 1);
    /**
     * Stable reference to a named counter, created at zero if
     * absent.  std::map node addresses never move, and reset()
     * zeroes values in place rather than erasing nodes, so the
     * reference stays valid for the group's lifetime -- per-event
     * hot paths (the policies' reservation bookkeeping) resolve the
     * name once at construction and bump through the reference,
     * instead of paying a tree walk per event.
     */
    std::uint64_t &counter(std::string_view name);
    /** Read (zero if absent). */
    std::uint64_t get(std::string_view name) const;
    /** All counters, sorted by name. */
    const std::map<std::string, std::uint64_t, std::less<>> &all() const
    {
        return counters_;
    }
    /** Zero every counter in place (references from counter() stay
     *  valid; the names survive with value 0). */
    void reset();

  private:
    std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/**
 * Monotonic wall-clock stopwatch.  Starts on construction.
 */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    void reset() { start_ = std::chrono::steady_clock::now(); }

    double
    elapsedSec() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace csr

#endif // CSR_UTIL_STATS_H
