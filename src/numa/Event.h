/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global queue of (tick, sequence, action) triples.  The
 * sequence number makes simultaneous events fire in scheduling order,
 * which keeps runs deterministic: (tick, seq) is a total order.
 *
 * The queue allocates nothing once it has seen its deepest backlog.
 * Each action is a trivially copyable callable stored inline in a
 * fixed-capacity record (InlineFunction); records live in a pooled
 * slab with a free list, and a 4-ary min-heap orders small
 * (tick, seq, slot) keys over them.
 */

#ifndef CSR_NUMA_EVENT_H
#define CSR_NUMA_EVENT_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "numa/Pool.h"
#include "util/Logging.h"
#include "util/Types.h"

namespace csr
{

template <typename Signature, std::size_t Capacity>
class InlineFunction;

/**
 * A callable of signature R(Args...) held by value in @p Capacity
 * bytes, with no heap storage.  Only trivially copyable callables
 * (lambdas capturing pointers, references and plain values, or such
 * functors) fit, so an InlineFunction is itself trivially copyable.
 */
template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>>>
    InlineFunction(F fn) // NOLINT: implicit, so lambdas convert
    {
        static_assert(std::is_trivially_copyable_v<F>,
                      "an inline callable must be trivially copyable");
        static_assert(sizeof(F) <= Capacity,
                      "callable capture exceeds the inline capacity");
        static_assert(alignof(F) <= alignof(std::uint64_t),
                      "callable is over-aligned");
        ::new (static_cast<void *>(storage_)) F(fn);
        invoke_ = [](const void *self, Args... args) -> R {
            return (*std::launder(static_cast<const F *>(self)))(
                std::forward<Args>(args)...);
        };
    }

    R
    operator()(Args... args) const
    {
        return invoke_(storage_, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return invoke_ != nullptr; }

  private:
    alignas(std::uint64_t) unsigned char storage_[Capacity] = {};
    R (*invoke_)(const void *, Args...) = nullptr;
};

/** Deterministic discrete-event queue. */
class EventQueue
{
  public:
    /** Bytes an event's capture may occupy: the largest is
     *  MeshNetwork::send's [this, msg]. */
    static constexpr std::size_t kCaptureBytes = 48;
    using Action = InlineFunction<void(), kCaptureBytes>;

    /** Schedule an action at an absolute tick (>= current time). */
    void
    schedule(Tick when, Action action)
    {
        csr_assert(when >= now_, "scheduling into the past");
        heap_.push_back(Key{when, seq_++, slab_.acquire(action)});
        siftUp(heap_.size() - 1);
    }

    /** Schedule an action delta ticks from now. */
    void
    scheduleIn(Tick delta, Action action)
    {
        schedule(now_ + delta, action);
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no events remain. */
    bool empty() const { return heap_.empty(); }

    std::size_t pending() const { return heap_.size(); }

    /** Pop and execute the next event.  @return false if empty. */
    bool
    step()
    {
        if (heap_.empty())
            return false;
        const Key top = heap_.front();
        const Key last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty())
            siftDown(last);
        // The action may schedule events, which can reuse its slot or
        // grow the slab, so run a copy and free the slot first.
        const Action action = slab_[top.slot];
        slab_.release(top.slot);
        now_ = top.when;
        action();
        return true;
    }

    /** Run until the queue drains or max_events fire.
     *  @return number of events executed. */
    std::uint64_t
    run(std::uint64_t max_events = UINT64_MAX)
    {
        std::uint64_t n = 0;
        while (n < max_events && step())
            ++n;
        return n;
    }

  private:
    static constexpr std::size_t kArity = 4;

    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;

        bool
        before(const Key &other) const
        {
            return when != other.when ? when < other.when
                                      : seq < other.seq;
        }
    };

    void
    siftUp(std::size_t i)
    {
        const Key key = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / kArity;
            if (!key.before(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = key;
    }

    /** Place @p key, taken from the back, starting at the root. */
    void
    siftDown(const Key &key)
    {
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        while (true) {
            const std::size_t first = i * kArity + 1;
            if (first >= n)
                break;
            const std::size_t end = first + kArity < n ? first + kArity : n;
            std::size_t best = first;
            for (std::size_t c = first + 1; c < end; ++c)
                if (heap_[c].before(heap_[best]))
                    best = c;
            if (!heap_[best].before(key))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = key;
    }

    SlotPool<Action> slab_;
    std::vector<Key> heap_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace csr

#endif // CSR_NUMA_EVENT_H
