#include "util/Stats.h"

#include <algorithm>
#include <cmath>

#include "util/Logging.h"

namespace csr
{

void
RunningStat::add(double x)
{
    ++n_;
    if (n_ == 1) {
        mean_ = x;
        m2_ = 0.0;
        min_ = max_ = x;
        return;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
RunningStat::merge(const RunningStat &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double delta = other.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double nt = na + nb;
    m2_ += other.m2_ + delta * delta * na * nb / nt;
    mean_ += delta * nb / nt;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
RunningStat::reset()
{
    *this = RunningStat();
}

double
RunningStat::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_);
}

double
RunningStat::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    csr_assert(hi > lo && buckets > 0, "bad histogram shape");
}

void
Histogram::add(double x, std::uint64_t weight)
{
    if (x < lo_) {
        underflow_ += weight;
        return;
    }
    const auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) {
        overflow_ += weight;
        return;
    }
    counts_[idx] += weight;
}

void
Histogram::merge(const Histogram &other)
{
    csr_assert(sameShape(other), "merging histograms of different shape");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = 0;
}

double
Histogram::bucketLo(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

std::uint64_t
Histogram::totalCount() const
{
    std::uint64_t total = underflow_ + overflow_;
    for (auto c : counts_)
        total += c;
    return total;
}

double
Histogram::percentile(double frac) const
{
    const std::uint64_t total = totalCount();
    if (total == 0)
        return lo_;
    frac = std::clamp(frac, 0.0, 1.0);
    // Rank of the sample that realizes the percentile, 1-based.  The
    // ceiling (with a floor of one, so p0 means "the smallest
    // sample") keeps the old near-median behaviour while pinning the
    // endpoints: p100 lands on the last populated bucket instead of
    // overshooting, p0 on the first instead of always reporting
    // bucket 0's edge.
    auto target = static_cast<std::uint64_t>(
        std::ceil(frac * static_cast<double>(total)));
    if (target == 0)
        target = 1;
    if (target <= underflow_)
        return lo_;
    std::uint64_t seen = underflow_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= target)
            return bucketLo(i) + width_;
    }
    // The remaining mass sits in the overflow bucket.
    return bucketLo(counts_.size() - 1) + width_;
}

void
ParallelTiming::recordTask(double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.add(seconds);
}

double
ParallelTiming::taskSecTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.sum();
}

double
ParallelTiming::taskSecMax() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tasks_.max();
}

void
StatGroup::inc(std::string_view name, std::uint64_t by)
{
    auto it = counters_.lower_bound(name);
    if (it != counters_.end() && it->first == name) {
        it->second += by;
        return;
    }
    counters_.emplace_hint(it, std::string(name), by);
}

std::uint64_t &
StatGroup::counter(std::string_view name)
{
    auto it = counters_.lower_bound(name);
    if (it == counters_.end() || it->first != name)
        it = counters_.emplace_hint(it, std::string(name), 0);
    return it->second;
}

std::uint64_t
StatGroup::get(std::string_view name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

void
StatGroup::reset()
{
    for (auto &[name, value] : counters_) {
        (void)name;
        value = 0;
    }
}

} // namespace csr
