/**
 * @file
 * A slab of same-typed records addressed by 32-bit slot numbers.
 *
 * Released slots go on a free list and are reused last-in first-out,
 * so once the slab has grown to its deepest occupancy (or was
 * reserved for it) acquiring and releasing allocate nothing.
 */

#ifndef CSR_NUMA_POOL_H
#define CSR_NUMA_POOL_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csr
{

/** No slot: a link that points nowhere. */
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

template <typename T>
class SlotPool
{
  public:
    /** Make room for @p n records in use at once. */
    void
    reserve(std::size_t n)
    {
        items_.reserve(n);
        free_.reserve(n);
    }

    /** Store @p value in a free slot.  @return the slot. */
    std::uint32_t
    acquire(const T &value)
    {
        if (free_.empty()) {
            items_.push_back(value);
            return static_cast<std::uint32_t>(items_.size() - 1);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        items_[slot] = value;
        return slot;
    }

    /** Return @p slot to the free list; its record is dead. */
    void release(std::uint32_t slot) { free_.push_back(slot); }

    T &operator[](std::uint32_t slot) { return items_[slot]; }
    const T &operator[](std::uint32_t slot) const { return items_[slot]; }

    /** Slots in use. */
    std::size_t live() const { return items_.size() - free_.size(); }

  private:
    std::vector<T> items_;
    std::vector<std::uint32_t> free_;
};

} // namespace csr

#endif // CSR_NUMA_POOL_H
