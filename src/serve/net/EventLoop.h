/**
 * @file
 * A single-threaded epoll event loop (DESIGN.md section 3.7).
 *
 * One EventLoop == one worker thread == one epoll instance.  File
 * descriptors are registered with a callback that receives the ready
 * event mask; all callbacks run on the loop thread, so per-connection
 * state needs no locking.  The one cross-thread entry point is
 * post(): any thread may hand the loop a closure, which an eventfd
 * wakeup delivers to the loop thread's next iteration.  That is how
 * an asynchronous backend completion -- which may fire on an
 * arbitrary thread -- re-enters the connection that is waiting for
 * it without a single shared-state lock on the hot path.
 *
 * Handlers are held by shared_ptr during dispatch and looked up
 * fresh per event, so a handler may del() its own fd (closing a
 * connection from inside its read callback) while later events for
 * that fd are still queued in the same epoll_wait batch: the lookup
 * simply misses and the stale event is dropped.
 *
 * Work that should happen once per loop turn rather than once per
 * event -- a connection writing every reply it produced this turn
 * with one send() -- is queued with atTurnEnd() and runs after the
 * turn's events, timers and posted closures.
 *
 * The loop counts the syscalls it issues (and those its connections
 * issue on its behalf) in relaxed atomics, readable from any thread.
 *
 * The loop also owns a hashed timer wheel (addTimer/cancelTimer,
 * loop-thread-only like add/mod/del): coarse 10ms ticks over 128
 * slots, which is plenty for connection idle/read deadlines and
 * chaos-injected accept delays -- none of which need sub-tick
 * precision.  The epoll_wait timeout tightens to the earliest armed
 * deadline so a timer never waits out the full idle period.
 */

#ifndef CSR_SERVE_NET_EVENTLOOP_H
#define CSR_SERVE_NET_EVENTLOOP_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace csr::serve::net
{

/** Syscalls issued by one loop thread, bumped once per call (never
 *  once per op).  Relaxed atomics: INFO on another worker reads them
 *  live. */
struct SyscallCounters
{
    std::atomic<std::uint64_t> recvCalls{0};
    std::atomic<std::uint64_t> sendCalls{0};
    std::atomic<std::uint64_t> epollWaits{0};
    std::atomic<std::uint64_t> epollCtls{0};
    /** eventfd writes by post()/stop() (coalesced: one per batch). */
    std::atomic<std::uint64_t> wakeWrites{0};

    static void
    bump(std::atomic<std::uint64_t> &counter)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
    }
};

class EventLoop
{
  public:
    using FdHandler = std::function<void(std::uint32_t events)>;
    using TimerId = std::uint64_t;

    /** @throws NetError when epoll/eventfd creation fails. */
    EventLoop();
    ~EventLoop();

    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Register @p fd for @p events (EPOLLIN etc).  Loop thread
     *  only (or before run()).  @throws NetError. */
    void add(int fd, std::uint32_t events, FdHandler handler);

    /** Change @p fd's interest mask.  Loop thread only. */
    void mod(int fd, std::uint32_t events);

    /** Deregister @p fd (does not close it).  Loop thread only. */
    void del(int fd);

    /** Run @p fn on the loop thread at the next iteration.  Safe
     *  from any thread, including the loop thread itself (the
     *  closure still runs later, never reentrantly).  Closures
     *  posted after stop() run during the loop's final drain.  The
     *  eventfd is written only when no wake is already pending, so
     *  a burst of posts costs one write. */
    void post(std::function<void()> fn);

    /** Run @p fn on the loop thread at the end of the current turn,
     *  after every handler, due timer and posted closure of that
     *  turn.  Loop thread only.  A closure may queue more; they run
     *  in the same turn. */
    void atTurnEnd(std::function<void()> fn);

    /** Dispatch until stop().  Call from the owning thread. */
    void run();

    /** Ask run() to return (thread-safe, idempotent).  Pending
     *  posted closures are drained before it does. */
    void stop();

    /** True when called from inside run() on the loop thread. */
    bool inLoopThread() const;

    /**
     * Arm a one-shot timer: @p fn runs on the loop thread once at
     * least @p delay_ns have elapsed (10ms tick granularity).  Loop
     * thread only (or before run()); cross-thread callers go through
     * post().  The callback may arm further timers.  Returns an id
     * for cancelTimer(); ids are never reused.
     */
    TimerId addTimer(std::uint64_t delay_ns, std::function<void()> fn);

    /** Disarm @p id if it has not fired (loop thread only).  Unknown
     *  or already-fired ids are ignored. */
    void cancelTimer(TimerId id);

    /** Armed, not-yet-fired timer count (loop thread only; tests). */
    std::size_t pendingTimers() const { return timerCount_; }

    /** This loop's syscall counters (any thread may read them). */
    SyscallCounters &syscalls() { return syscalls_; }
    const SyscallCounters &syscalls() const { return syscalls_; }

  private:
    struct TimerEntry
    {
        TimerId id;
        std::uint64_t deadlineNs;
        std::function<void()> fn;
    };

    static constexpr std::size_t kWheelSlots = 128; // power of two
    static constexpr std::uint64_t kWheelTickNs = 10'000'000; // 10ms

    void wake();
    void drainPosted();
    void runTurnEnd();
    void fireDueTimers(std::uint64_t now_ns);
    int epollTimeoutMs(std::uint64_t now_ns) const;

    int epollFd_ = -1;
    int wakeFd_ = -1;
    std::atomic<bool> stop_{false};
    /** Set by post() when it writes the eventfd, cleared by
     *  drainPosted() before it takes the batch. */
    std::atomic<bool> wakePending_{false};
    std::atomic<std::thread::id> loopThread_{};
    std::mutex postMutex_;
    std::vector<std::function<void()>> posted_;
    std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
    std::vector<std::function<void()>> turnEnd_; ///< loop thread only
    SyscallCounters syscalls_;

    // Timer wheel state: loop-thread-only, no locks.
    std::array<std::vector<TimerEntry>, kWheelSlots> wheel_;
    TimerId nextTimerId_ = 1;
    std::size_t timerCount_ = 0;
    std::uint64_t wheelCursorTick_ = 0; ///< last tick fully fired
    std::uint64_t earliestDeadlineNs_ = 0; ///< 0 = no timers armed
};

} // namespace csr::serve::net

#endif // CSR_SERVE_NET_EVENTLOOP_H
