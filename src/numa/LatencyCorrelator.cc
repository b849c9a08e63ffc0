#include "numa/LatencyCorrelator.h"

#include <cmath>

#include "util/Random.h"

namespace csr
{

int
LatencyCorrelator::classOf(bool write, DirEntry::State state)
{
    const int type = write ? 1 : 0;
    const int s = state == DirEntry::State::Uncached ? 0
                  : state == DirEntry::State::Shared ? 1
                                                     : 2;
    return type * 3 + s;
}

const char *
LatencyCorrelator::className(int cls)
{
    static const char *names[kClasses] = {
        "rd/U", "rd/S", "rd/E", "rdx/U", "rdx/S", "rdx/E",
    };
    return names[cls];
}

void
LatencyCorrelator::observe(const MissService &service)
{
    const int cls = classOf(service.write, service.stateAtArrival);
    // Key the history by (processor, block).
    const std::uint64_t key =
        hashMix64((static_cast<std::uint64_t>(service.requester) << 48) ^
                  service.block);

    LastMiss &last = last_[key];
    if (last.cls >= 0) {
        Cell &c = cells_[static_cast<std::size_t>(last.cls)]
                        [static_cast<std::size_t>(cls)];
        ++c.count;
        ++totalPairs_;
        const auto diff = static_cast<double>(
            last.unloaded > service.unloadedLatency
                ? last.unloaded - service.unloadedLatency
                : service.unloadedLatency - last.unloaded);
        if (diff > 0.5) {
            ++c.mismatches;
            c.absErrorNs += diff;
        }
    }
    last = {cls, service.unloadedLatency};
}

double
LatencyCorrelator::matchedPct() const
{
    if (totalPairs_ == 0)
        return 0.0;
    std::uint64_t mismatches = 0;
    for (const auto &row : cells_)
        for (const auto &cell : row)
            mismatches += cell.mismatches;
    return 100.0 *
           static_cast<double>(totalPairs_ - mismatches) /
           static_cast<double>(totalPairs_);
}

} // namespace csr
