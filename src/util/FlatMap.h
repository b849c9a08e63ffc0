/**
 * @file
 * The repository's one hash table: an insert-only flat map from a
 * 64-bit key to a value.
 *
 * It backs every per-key table that is touched on a hot path and
 * never shrinks: CacheService's per-stripe key table (the online
 * cost model, serve/KeyTable.h), and the CC-NUMA simulator's
 * first-touch home map, directory entries, latency predictors and
 * Table 3 correlator history.  So it is a flat open-addressing array
 * rather than a node-based map (DESIGN.md section 3.5):
 *
 *  - one slot per key, {key, value}, in one contiguous array;
 *  - linear probing from hashMix64(key) over a power-of-two capacity
 *    that doubles when 3/4 of the slots are taken;
 *  - an all-ones key marks an empty slot, and the one real key equal
 *    to that sentinel lives in a side slot of its own.
 *
 * Keys are never erased (a cost estimate outlives its line, a block
 * keeps its home), which is why there is no erase.  A value is
 * value-initialized on first access.  Not thread-safe: the owner
 * serializes every call.
 */

#ifndef CSR_UTIL_FLATMAP_H
#define CSR_UTIL_FLATMAP_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/Random.h"
#include "util/Types.h"

namespace csr
{

template <typename V>
class FlatMap
{
  public:
    /** The value of @p key, inserted value-initialized when absent.
     *  The reference stays valid until the next insertion. */
    V &
    operator[](Addr key)
    {
        if (key == kEmptyKey) {
            hasEmptyKey_ = true;
            return emptyKeyValue_;
        }
        if (used_ >= growAt_)
            grow();
        Slot &slot = slots_[indexOf(key)];
        if (slot.key == kEmptyKey) {
            slot.key = key;
            ++used_;
        }
        return slot.value;
    }

    /** The value of @p key, or null when the key was never seen. */
    const V *
    find(Addr key) const
    {
        if (key == kEmptyKey)
            return hasEmptyKey_ ? &emptyKeyValue_ : nullptr;
        if (used_ == 0)
            return nullptr;
        const Slot &slot = slots_[indexOf(key)];
        return slot.key == key ? &slot.value : nullptr;
    }

    V *
    find(Addr key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    /** Distinct keys stored. */
    std::size_t size() const { return used_ + (hasEmptyKey_ ? 1 : 0); }

    /** Call @p fn(key, value) once per stored key, in no particular
     *  (but deterministic) order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        if (hasEmptyKey_)
            fn(kEmptyKey, emptyKeyValue_);
        for (const Slot &slot : slots_)
            if (slot.key != kEmptyKey)
                fn(slot.key, slot.value);
    }

  private:
    static constexpr Addr kEmptyKey = ~Addr{0};
    static constexpr std::size_t kInitialSlots = 16;

    struct Slot
    {
        Addr key = kEmptyKey;
        V value{};
    };

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
    V emptyKeyValue_{};
};

} // namespace csr

#endif // CSR_UTIL_FLATMAP_H
