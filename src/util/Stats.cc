#include "util/Stats.h"

#include <algorithm>
#include <cmath>

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

void
Histogram::grow(std::size_t idx)
{
    counts_.resize(idx + 1, 0);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.counts_.size() > counts_.size())
        counts_.resize(other.counts_.size(), 0);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

std::uint64_t
Histogram::bucketLo(std::size_t i)
{
    constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    if (i < 2 * kSub)
        return i;
    // i = (shift << kSubBits) + (v >> shift), where v >> shift is in
    // [kSub, 2 * kSub): the top bits name the shift, the low bits the
    // sub-bucket.
    const std::size_t shift = i / kSub - 1;
    return static_cast<std::uint64_t>(i % kSub + kSub) << shift;
}

double
Histogram::percentile(double frac) const
{
    if (total_ == 0)
        return 0.0;
    frac = std::clamp(frac, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(frac * static_cast<double>(total_)));
    if (rank <= 1)
        return static_cast<double>(min());
    if (rank >= total_)
        return static_cast<double>(max_);
    std::uint64_t seen = 0;
    std::size_t i = 0;
    while ((seen += counts_[i]) < rank)
        ++i;
    // Midpoint of the bucket's integer range [lo, lo + width - 1],
    // kept inside the observed extremes.
    const std::uint64_t width =
        i < (std::size_t{2} << kSubBits)
            ? 1
            : std::uint64_t{1} << ((i >> kSubBits) - 1);
    const double mid = static_cast<double>(bucketLo(i)) +
                       static_cast<double>(width - 1) / 2.0;
    return std::clamp(mid, static_cast<double>(min_),
                      static_cast<double>(max_));
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
