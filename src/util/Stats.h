/**
 * @file
 * Lightweight statistics accumulators.
 *
 * The simulators accumulate large numbers of per-event samples (miss
 * latencies, reservation outcomes, per-set activity).  These helpers
 * provide numerically stable means/variances, fixed-bucket histograms
 * and a named-counter registry that benches can dump uniformly.
 */

#ifndef CSR_UTIL_STATS_H
#define CSR_UTIL_STATS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
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
 * Fixed-width bucket histogram over [lo, hi) with overflow/underflow
 * buckets.  Used e.g. for miss-latency distributions.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void add(double x, std::uint64_t weight = 1);
    void reset();

    /** Merge another histogram of identical shape (parallel
     *  reduction); panics on a shape mismatch. */
    void merge(const Histogram &other);

    /** True when both histograms cover the same buckets. */
    bool sameShape(const Histogram &other) const
    {
        return lo_ == other.lo_ && width_ == other.width_ &&
               counts_.size() == other.counts_.size();
    }

    std::size_t numBuckets() const { return counts_.size(); }
    double bucketWidth() const { return width_; }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    /** Inclusive lower edge of bucket i. */
    double bucketLo(std::size_t i) const;
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t totalCount() const;
    /** Smallest value v such that at least frac of the mass is <= v
     *  (approximated at bucket granularity).  @p frac is clamped to
     *  [0,1]; an empty histogram reports lo(), p0 the first populated
     *  bucket's upper edge (lo() when the mass starts in the
     *  underflow bucket), and p100 the last populated bucket's upper
     *  edge (the top edge when mass overflows). */
    double percentile(double frac) const;

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
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

/**
 * Timing summary for a batch of parallel tasks: workers record the
 * wall-clock seconds of each task (thread-safe).  Task-seconds over
 * the batch's wall time is how the sweep engine makes its
 * parallelism observable.
 */
class ParallelTiming
{
  public:
    /** Record one finished task (safe to call from any thread). */
    void recordTask(double seconds);

    double taskSecTotal() const;
    double taskSecMax() const;

  private:
    mutable std::mutex mutex_;
    RunningStat tasks_;
};

} // namespace csr

#endif // CSR_UTIL_STATS_H
