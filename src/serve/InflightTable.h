/**
 * @file
 * Single-flight miss coalescing: one backend fetch per missing key,
 * no matter how many threads miss on it concurrently.
 *
 * The first thread to miss on a key becomes the *leader*: it claims
 * the key in the table under the stripe mutex, releases the mutex,
 * performs the backend fetch, then re-acquires the mutex to install
 * the block and publish the result.  Threads that miss on the same
 * key while the fetch is in flight become *waiters*: the first of
 * them attaches an InflightFetch to the entry, and all of them park
 * on its condition variable (off the stripe mutex, so the stripe keeps
 * serving other keys) and, once woken, fold the leader's measured
 * latency into their own EWMA observation of the key -- the paper's
 * cost signal sees one sample per requester, exactly as if each had
 * paid the fetch, while the backend sees a single call (the stampede
 * protection every production cache tier wants).
 *
 * Two ways to join a flight.  awaitFetchFor() parks the calling
 * thread with a *bounded* condvar wait -- a wedged leader (backend
 * hang, lost completion) times the waiter out instead of parking a
 * network connection forever; the caller turns that into a typed
 * csr::TimeoutError.  subscribeFetch() registers a completion
 * callback instead of blocking: the network event loop's miss path,
 * where a net worker must never sleep on someone else's fetch.
 *
 * Moving the fetch outside the stripe mutex is itself the second half
 * of the tentpole: under the old code a shard was serialized for the
 * whole backend round trip; now it is held only for the map/array
 * bookkeeping on either side.
 */

#ifndef CSR_SERVE_INFLIGHTTABLE_H
#define CSR_SERVE_INFLIGHTTABLE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "util/Types.h"

namespace csr::serve
{

/** One in-flight backend fetch; waiters park on cv until done. */
struct InflightFetch
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::uint64_t value = 0;
    double latencyNs = 0.0;
    /** Set instead of value/latencyNs when the leader's fetch threw;
     *  awaitFetchFor rethrows it in every waiter, subscribers see it
     *  through the published entry. */
    std::exception_ptr error;
    /** Non-blocking waiters (subscribeFetch); drained exactly once by
     *  the completing thread, after done is set, with no lock held. */
    std::vector<std::function<void()>> subscribers;
};

/** Run-and-clear the subscriber list (completer-side helper). */
inline void
notifySubscribers(std::vector<std::function<void()>> subscribers)
{
    for (auto &fn : subscribers)
        fn();
}

/**
 * Publish the leader's result and wake every waiter -- parked and
 * subscribed alike.  Called with the stripe mutex NOT held (the entry
 * has its own mutex).
 */
inline void
completeFetch(InflightFetch &fetch, std::uint64_t value,
              double latency_ns)
{
    std::vector<std::function<void()>> subscribers;
    {
        std::lock_guard<std::mutex> lock(fetch.mutex);
        fetch.value = value;
        fetch.latencyNs = latency_ns;
        fetch.done = true;
        subscribers.swap(fetch.subscribers);
    }
    fetch.cv.notify_all();
    notifySubscribers(std::move(subscribers));
}

/**
 * Publish the leader's *failure* and wake every waiter: parked ones
 * rethrow @p error out of awaitFetchFor, subscribers observe it on
 * the entry.  Called with the stripe mutex NOT held, after the leader
 * has already erased the entry from the table (so a later miss on the
 * key elects a fresh leader rather than joining the dead flight).
 */
inline void
failFetch(InflightFetch &fetch, std::exception_ptr error)
{
    std::vector<std::function<void()>> subscribers;
    {
        std::lock_guard<std::mutex> lock(fetch.mutex);
        fetch.error = std::move(error);
        fetch.done = true;
        subscribers.swap(fetch.subscribers);
    }
    fetch.cv.notify_all();
    notifySubscribers(std::move(subscribers));
}

/**
 * Block until the leader publishes, for at most @p timeout_ns
 * (0 = unbounded, the historical behaviour).  Rethrows the leader's
 * exception if the fetch failed.  @return false when the wait timed
 * out with the fetch still in flight -- the entry is untouched, so
 * the leader can still complete it for everyone else; the caller
 * decides how loudly to give up.  Stripe mutex must NOT be held.
 */
inline bool
awaitFetchFor(InflightFetch &fetch, std::uint64_t timeout_ns)
{
    std::unique_lock<std::mutex> lock(fetch.mutex);
    const auto ready = [&fetch] { return fetch.done; };
    if (timeout_ns == 0)
        fetch.cv.wait(lock, ready);
    else if (!fetch.cv.wait_for(
                 lock, std::chrono::nanoseconds(timeout_ns), ready))
        return false;
    if (fetch.error)
        std::rethrow_exception(fetch.error);
    return true;
}

/**
 * Join a flight without blocking: @p fn runs exactly once after the
 * leader publishes (inspect the entry's value/latencyNs/error fields
 * then), on the completing thread -- or inline, right here, when the
 * flight already completed.  The network miss path: the callback
 * re-enters the owning event loop instead of a thread parking.
 * Stripe mutex must NOT be held (callers registering under the stripe
 * mutex would lock-invert against completeFetch's callers).
 */
inline void
subscribeFetch(InflightFetch &fetch, std::function<void()> fn)
{
    {
        std::unique_lock<std::mutex> lock(fetch.mutex);
        if (!fetch.done) {
            fetch.subscribers.push_back(std::move(fn));
            return;
        }
    }
    fn();
}

/**
 * The per-stripe table of in-flight fetches: a short vector of
 * (key, flight) entries, scanned linearly.  Each entry is one key
 * whose leader is fetching, and a stripe has at most one per thread
 * (or pending async fetch) that reached it, so the vector stays a
 * few entries long and, once grown, allocates nothing more.
 *
 * The InflightFetch a waiter parks on is made by the first *joiner*,
 * not by the leader: a miss that nobody joins -- nearly all of them
 * -- records only its key.  The leader gets the flight back from
 * erase() and publishes to it only when someone joined.
 *
 * All methods must be called with the stripe mutex held; the flights
 * themselves outlive erase() through shared ownership, so waiters
 * that joined before the leader finished still see the result.
 */
class InflightTable
{
  public:
    /** Join @p key's in-flight fetch, or claim leadership of a new
     *  one.  Second element is true for the leader, whose first
     *  element is null; a joiner gets the flight to wait on, made
     *  here if it is the first to join. */
    std::pair<std::shared_ptr<InflightFetch>, bool>
    claim(Addr key)
    {
        for (Entry &entry : entries_) {
            if (entry.key != key)
                continue;
            if (!entry.flight)
                entry.flight = std::make_shared<InflightFetch>();
            return {entry.flight, false};
        }
        entries_.push_back({key, nullptr});
        return {nullptr, true};
    }

    /** Leader-only: retire @p key's entry once the fetch is over.
     *  @return the flight its joiners wait on, or null when nobody
     *  joined (or takeAll() already failed it): nothing to publish. */
    std::shared_ptr<InflightFetch>
    erase(Addr key)
    {
        for (Entry &entry : entries_) {
            if (entry.key != key)
                continue;
            std::shared_ptr<InflightFetch> flight = std::move(entry.flight);
            std::swap(entry, entries_.back());
            entries_.pop_back();
            return flight;
        }
        return nullptr;
    }

    /**
     * Drain-path: remove every entry at once and return one flight
     * per in-flight key, making one for a key nobody joined.  The
     * caller (holding the stripe mutex) then failFetch()es each one
     * with the mutex released, unparking all waiters -- how a
     * draining server guarantees no connection stays parked on a
     * flight whose leader will never complete.
     */
    std::vector<std::shared_ptr<InflightFetch>>
    takeAll()
    {
        std::vector<std::shared_ptr<InflightFetch>> flights;
        flights.reserve(entries_.size());
        for (Entry &entry : entries_)
            flights.push_back(entry.flight
                                  ? std::move(entry.flight)
                                  : std::make_shared<InflightFetch>());
        entries_.clear();
        return flights;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        Addr key;
        /** Null until a second requester joins. */
        std::shared_ptr<InflightFetch> flight;
    };
    std::vector<Entry> entries_;
};

} // namespace csr::serve

#endif // CSR_SERVE_INFLIGHTTABLE_H
