/**
 * @file
 * The per-stripe key table behind CacheService's online cost model.
 *
 * Every key a stripe has ever fetched or stored keeps a KeyState: the
 * EWMA of its measured backend latency (the block cost the policy
 * weighs at eviction), its sample count, and the last value installed
 * for it.  The table is touched on every miss and every store, so it
 * is a flat open-addressing array rather than a node-based map
 * (DESIGN.md section 3.5):
 *
 *  - one 32-byte slot per key, {key, ewmaNs, lastValue, samples},
 *    with the has-value flag folded into the top bit of the sample
 *    count;
 *  - linear probing from hashMix64(key) over a power-of-two capacity
 *    that doubles when 3/4 of the slots are taken;
 *  - an all-ones key marks an empty slot, and the one real key equal
 *    to that sentinel lives in a side slot of its own.
 *
 * Keys are never erased (a cost estimate outlives its line, so a
 * re-fetched key resumes its EWMA), which is why there is no erase.
 * Not thread-safe: the owning stripe's mutex guards every call.
 */

#ifndef CSR_SERVE_KEYTABLE_H
#define CSR_SERVE_KEYTABLE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/Random.h"
#include "util/Types.h"

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

class KeyTable
{
  public:
    /** The state of @p key, inserted zeroed when absent.  The
     *  reference stays valid until the next insertion. */
    KeyState &
    operator[](Addr key)
    {
        if (key == kEmptyKey) {
            hasEmptyKey_ = true;
            return emptyKeyState_;
        }
        if (used_ >= growAt_)
            grow();
        Slot &slot = slots_[indexOf(key)];
        if (slot.key == kEmptyKey) {
            slot.key = key;
            ++used_;
        }
        return slot.state;
    }

    /** The state of @p key, or null when the key was never seen. */
    const KeyState *
    find(Addr key) const
    {
        if (key == kEmptyKey)
            return hasEmptyKey_ ? &emptyKeyState_ : nullptr;
        if (used_ == 0)
            return nullptr;
        const Slot &slot = slots_[indexOf(key)];
        return slot.key == key ? &slot.state : nullptr;
    }

    /** Distinct keys stored. */
    std::size_t size() const { return used_ + (hasEmptyKey_ ? 1 : 0); }

    /** Call @p fn(key, state) once per stored key, in no particular
     *  (but deterministic) order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (hasEmptyKey_)
            fn(kEmptyKey, emptyKeyState_);
        for (const Slot &slot : slots_)
            if (slot.key != kEmptyKey)
                fn(slot.key, slot.state);
    }

  private:
    static constexpr Addr kEmptyKey = ~Addr{0};
    static constexpr std::size_t kInitialSlots = 16;

    struct Slot
    {
        Addr key = kEmptyKey;
        KeyState state;
    };
    static_assert(sizeof(Slot) == 32, "a key slot must stay 32 bytes");

    /** The slot holding @p key, or the empty slot ending its probe
     *  run.  Terminates because the table is never full. */
    std::size_t
    indexOf(Addr key) const
    {
        std::size_t i = static_cast<std::size_t>(hashMix64(key)) & mask_;
        while (slots_[i].key != key && slots_[i].key != kEmptyKey)
            i = (i + 1) & mask_;
        return i;
    }

    /** Double the capacity (or make the first array) and re-place
     *  every key. */
    void
    grow()
    {
        std::vector<Slot> old(slots_.empty() ? kInitialSlots
                                             : slots_.size() * 2);
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        growAt_ = slots_.size() / 4 * 3;
        for (const Slot &slot : old)
            if (slot.key != kEmptyKey)
                slots_[indexOf(slot.key)] = slot;
    }

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    /** Occupied slots (the side slot not counted). */
    std::size_t used_ = 0;
    /** operator[] doubles the table once used_ reaches this (3/4
     *  of the slots), so the load never exceeds 3/4. */
    std::size_t growAt_ = 0;
    bool hasEmptyKey_ = false;
    KeyState emptyKeyState_;
};

} // namespace csr::serve

#endif // CSR_SERVE_KEYTABLE_H
