/**
 * @file
 * The per-stripe key table behind CacheService's online cost model.
 *
 * Every key a stripe has ever fetched or stored keeps a KeyState: the
 * EWMA of its measured backend latency (the block cost the policy
 * weighs at eviction), its sample count, and the last value installed
 * for it.  The table is touched on every miss and every store, so it
 * is the repository's flat open-addressing map (util/FlatMap.h), with
 * one 32-byte slot per key, {key, ewmaNs, lastValue, samples}: the
 * has-value flag is folded into the top bit of the sample count.
 *
 * Keys are never erased (a cost estimate outlives its line, so a
 * re-fetched key resumes its EWMA).  Not thread-safe: the owning
 * stripe's mutex guards every call.
 */

#ifndef CSR_SERVE_KEYTABLE_H
#define CSR_SERVE_KEYTABLE_H

#include <cstdint>

#include "util/FlatMap.h"

namespace csr::serve
{

/** Per-key backend-latency estimate (the online cost model). */
struct KeyState
{
    double ewmaNs = 0.0;
    /** Last value installed for this key (fetch or store); kept past
     *  eviction so --stale-while-broken can serve it while the
     *  shard's circuit breaker is open.  Meaningful only when
     *  hasValue(). */
    std::uint64_t lastValue = 0;

    /** Latency samples folded into ewmaNs so far. */
    std::uint64_t samples() const { return bits_ & kSamplesMask; }

    bool hasValue() const { return (bits_ & kHasValueBit) != 0; }

    /** Fold a measured latency into the EWMA. */
    void
    observe(double latency_ns, double alpha)
    {
        ewmaNs = samples() == 0
                     ? latency_ns
                     : alpha * latency_ns + (1.0 - alpha) * ewmaNs;
        ++bits_;
    }

    /** Record @p value as the key's last installed value. */
    void
    remember(std::uint64_t value)
    {
        lastValue = value;
        bits_ |= kHasValueBit;
    }

  private:
    static constexpr std::uint64_t kHasValueBit = 1ull << 63;
    static constexpr std::uint64_t kSamplesMask = kHasValueBit - 1;

    /** Sample count in the low 63 bits, has-value in the top bit. */
    std::uint64_t bits_ = 0;
};
static_assert(sizeof(KeyState) == 24, "a key slot must stay 32 bytes");

using KeyTable = FlatMap<KeyState>;

} // namespace csr::serve

#endif // CSR_SERVE_KEYTABLE_H
