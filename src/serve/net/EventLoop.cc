#include "serve/net/EventLoop.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "robust/Errors.h"
#include "serve/net/NetCommon.h"

namespace csr::serve::net
{

namespace
{
std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}
} // namespace

EventLoop::EventLoop()
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        throw NetError("epoll_create1 failed: " + errnoText(errno));
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wakeFd_ < 0) {
        const int err = errno;
        ::close(epollFd_);
        epollFd_ = -1;
        throw NetError("eventfd failed: " + errnoText(err));
    }
    add(wakeFd_, EPOLLIN, [this](std::uint32_t) {
        std::uint64_t drained = 0;
        while (::read(wakeFd_, &drained, sizeof(drained)) > 0) {
            // Swallow every pending tick; posted closures are
            // drained once per iteration regardless.
        }
    });
}

EventLoop::~EventLoop()
{
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
EventLoop::add(int fd, std::uint32_t events, FdHandler handler)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    SyscallCounters::bump(syscalls_.epollCtls);
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0)
        throw NetError("epoll_ctl(ADD) failed: " + errnoText(errno));
    handlers_[fd] =
        std::make_shared<FdHandler>(std::move(handler));
}

void
EventLoop::mod(int fd, std::uint32_t events)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    SyscallCounters::bump(syscalls_.epollCtls);
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev) < 0)
        throw NetError("epoll_ctl(MOD) failed: " + errnoText(errno));
}

void
EventLoop::del(int fd)
{
    SyscallCounters::bump(syscalls_.epollCtls);
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    handlers_.erase(fd);
}

void
EventLoop::post(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(postMutex_);
        posted_.push_back(std::move(fn));
    }
    // Only the first post after a drain pays for the eventfd write;
    // drainPosted() clears the flag before it takes the batch, so a
    // post that misses the batch always sees it clear and wakes.
    if (!wakePending_.exchange(true))
        wake();
}

void
EventLoop::atTurnEnd(std::function<void()> fn)
{
    turnEnd_.push_back(std::move(fn));
}

void
EventLoop::wake()
{
    const std::uint64_t one = 1;
    SyscallCounters::bump(syscalls_.wakeWrites);
    // A full eventfd counter still wakes the loop; ignore EAGAIN.
    [[maybe_unused]] const ssize_t n =
        ::write(wakeFd_, &one, sizeof(one));
}

void
EventLoop::drainPosted()
{
    std::vector<std::function<void()>> batch;
    wakePending_.store(false);
    {
        std::lock_guard<std::mutex> lock(postMutex_);
        batch.swap(posted_);
    }
    for (auto &fn : batch)
        fn();
}

void
EventLoop::runTurnEnd()
{
    // Closures may queue more (a resumed decode completing another
    // connection's waiter); index so those run in this pass too.
    for (std::size_t i = 0; i < turnEnd_.size(); ++i) {
        const std::function<void()> fn = std::move(turnEnd_[i]);
        fn();
    }
    turnEnd_.clear();
}

bool
EventLoop::inLoopThread() const
{
    return loopThread_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
}

EventLoop::TimerId
EventLoop::addTimer(std::uint64_t delay_ns, std::function<void()> fn)
{
    const TimerId id = nextTimerId_++;
    const std::uint64_t deadline = monotonicNs() + delay_ns;
    const std::size_t slot =
        (deadline / kWheelTickNs) & (kWheelSlots - 1);
    wheel_[slot].push_back(TimerEntry{id, deadline, std::move(fn)});
    ++timerCount_;
    if (earliestDeadlineNs_ == 0 || deadline < earliestDeadlineNs_)
        earliestDeadlineNs_ = deadline;
    return id;
}

void
EventLoop::cancelTimer(TimerId id)
{
    // Timers are few (per-connection deadline watchers, chaos accept
    // delays) and short-lived, so a wheel scan on the cold cancel
    // path beats carrying an id->slot index on the arm path.
    for (auto &slot : wheel_) {
        for (auto it = slot.begin(); it != slot.end(); ++it) {
            if (it->id != id)
                continue;
            slot.erase(it);
            --timerCount_;
            // earliestDeadlineNs_ may now be stale (pointing at the
            // cancelled timer); that only causes one early wakeup,
            // after which fireDueTimers() recomputes it.
            return;
        }
    }
}

void
EventLoop::fireDueTimers(std::uint64_t now_ns)
{
    if (timerCount_ == 0) {
        earliestDeadlineNs_ = 0;
        wheelCursorTick_ = now_ns / kWheelTickNs;
        return;
    }
    const std::uint64_t nowTick = now_ns / kWheelTickNs;
    // Sweep every tick since the last pass, capped at one full
    // rotation (the wheel aliases past that anyway).  The current
    // tick is re-swept each call so sub-tick delays fire promptly;
    // re-sweeping is harmless because only due entries leave.
    std::uint64_t firstTick = wheelCursorTick_;
    if (nowTick >= kWheelSlots - 1 &&
        firstTick < nowTick - (kWheelSlots - 1))
        firstTick = nowTick - (kWheelSlots - 1);
    std::vector<TimerEntry> due;
    for (std::uint64_t tick = firstTick; tick <= nowTick; ++tick) {
        auto &slot = wheel_[tick & (kWheelSlots - 1)];
        for (std::size_t i = 0; i < slot.size();) {
            if (slot[i].deadlineNs <= now_ns) {
                due.push_back(std::move(slot[i]));
                slot[i] = std::move(slot.back());
                slot.pop_back();
                --timerCount_;
            } else {
                ++i;
            }
        }
    }
    wheelCursorTick_ = nowTick;
    if (!due.empty()) {
        // Deterministic fire order within one pass.
        std::sort(due.begin(), due.end(),
                  [](const TimerEntry &a, const TimerEntry &b) {
                      return a.deadlineNs != b.deadlineNs
                                 ? a.deadlineNs < b.deadlineNs
                                 : a.id < b.id;
                  });
        // Recompute the earliest remaining deadline before running
        // callbacks; addTimer() from inside a callback folds its own
        // deadline in via the min() on the arm path.
        earliestDeadlineNs_ = 0;
        for (const auto &slot : wheel_) {
            for (const auto &entry : slot) {
                if (earliestDeadlineNs_ == 0 ||
                    entry.deadlineNs < earliestDeadlineNs_)
                    earliestDeadlineNs_ = entry.deadlineNs;
            }
        }
        for (auto &entry : due)
            entry.fn();
    }
}

int
EventLoop::epollTimeoutMs(std::uint64_t now_ns) const
{
    constexpr int kIdleTimeoutMs = 200;
    if (timerCount_ == 0 || earliestDeadlineNs_ == 0)
        return kIdleTimeoutMs;
    if (earliestDeadlineNs_ <= now_ns)
        return 1;
    const std::uint64_t waitMs =
        (earliestDeadlineNs_ - now_ns) / 1'000'000 + 1;
    return static_cast<int>(
        std::min<std::uint64_t>(waitMs, kIdleTimeoutMs));
}

void
EventLoop::run()
{
    loopThread_.store(std::this_thread::get_id(),
                      std::memory_order_release);
    std::array<epoll_event, 64> events;
    while (!stop_.load(std::memory_order_acquire)) {
        SyscallCounters::bump(syscalls_.epollWaits);
        const int n =
            ::epoll_wait(epollFd_, events.data(),
                         static_cast<int>(events.size()),
                         epollTimeoutMs(monotonicNs()));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw NetError("epoll_wait failed: " + errnoText(errno));
        }
        for (int i = 0; i < n; ++i) {
            // Look the handler up per event: an earlier handler in
            // this batch may have del()ed this fd.
            const auto it = handlers_.find(events[i].data.fd);
            if (it == handlers_.end())
                continue;
            const std::shared_ptr<FdHandler> handler = it->second;
            (*handler)(events[i].events);
        }
        fireDueTimers(monotonicNs());
        drainPosted();
        runTurnEnd();
    }
    // Final drain so a completion posted concurrently with stop()
    // is not silently dropped (its connection may own resources).
    drainPosted();
    runTurnEnd();
    loopThread_.store(std::thread::id(), std::memory_order_release);
}

void
EventLoop::stop()
{
    stop_.store(true, std::memory_order_release);
    wake();
}

} // namespace csr::serve::net
