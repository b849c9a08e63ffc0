/**
 * @file
 * Per-shard circuit breaker over Backend::fetchAsync.
 *
 * A wedged backend tier must not park every event-loop waiter on the
 * inflight-wait timeout: after enough consecutive fetch timeouts or a
 * high-enough failure rate over a rolling window, the breaker trips
 * OPEN and subsequent misses against the shard fail fast with
 * CircuitOpenError (or serve a stale resident value when the service
 * runs --stale-while-broken).  After an exponential backoff with
 * deterministic seeded jitter the breaker admits exactly one PROBE
 * fetch (HALF-OPEN); a probe success closes the circuit and resets
 * the backoff exponent, a probe failure reopens it with the next
 * backoff step.
 *
 *        +--------+  trip (rate/timeouts)   +------+
 *        | CLOSED | ----------------------> | OPEN |<----+
 *        +--------+                         +------+     |
 *             ^                                |         |
 *             | probe ok        backoff expiry |         | probe
 *             |                                v         | fails
 *             |                          +-----------+   |
 *             +------------------------- | HALF-OPEN | --+
 *                                        +-----------+
 *
 * Time is caller-supplied (now_ns) so the state machine is unit
 * testable without sleeping; jitter is a pure function of
 * (seed, breaker id, trip count) so two runs of the same seeded
 * workload back off identically.  The breaker carries its own mutex:
 * one instance is shared by every stripe of a shard, and admit() is
 * only reached on the miss path, so the lock is far off the hit path.
 *
 * A closed breaker -- the steady state -- admits without the mutex:
 * the state also lives in an atomic word, written under the mutex and
 * read by admit() before it locks.  A miss that reads Closed just as
 * another thread trips the breaker proceeds, exactly as if it had
 * been admitted a moment before the trip.  Callers may skip reading
 * the clock altogether while closed() holds (CacheService does).
 */

#ifndef CSR_SERVE_CIRCUITBREAKER_H
#define CSR_SERVE_CIRCUITBREAKER_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "robust/Errors.h"
#include "util/Random.h"

namespace csr::serve
{

/** Breaker knobs (csrserve --breaker-* flags). */
struct BreakerConfig
{
    bool enabled = true;
    /** Rolling outcome window per breaker. */
    unsigned windowOps = 32;
    /** Minimum outcomes in the window before the rate can trip. */
    unsigned minSamples = 16;
    /** Failure fraction over the window that trips the breaker. */
    double failureRateThreshold = 0.5;
    /** Consecutive fetch timeouts that trip it regardless of rate. */
    unsigned consecutiveTimeouts = 4;
    double backoffInitialMs = 100.0;
    double backoffMaxMs = 5000.0;
    /** Backoff jitter: each open period is scaled by a deterministic
     *  factor in [1-j, 1+j]. */
    double jitterFraction = 0.2;
    /** Seeds the jitter draws (the serve seed). */
    std::uint64_t seed = 0;
    /** While open, a GET whose key is still resident serves the last
     *  installed value (marked non-fresh) instead of failing fast. */
    bool staleWhileBroken = false;

    /** Consume --breaker-* / --stale-while-broken flags (templated on
     *  the CliArgs accessor surface, like ChaosConfig::fromArgs). */
    template <typename Args>
    static BreakerConfig fromArgs(const Args &args)
    {
        BreakerConfig cfg;
        cfg.enabled = args.getUInt("breaker", 1) != 0;
        cfg.windowOps = static_cast<unsigned>(
            args.getUInt("breaker-window", cfg.windowOps));
        cfg.failureRateThreshold = args.getDouble(
            "breaker-rate", cfg.failureRateThreshold);
        cfg.consecutiveTimeouts = static_cast<unsigned>(args.getUInt(
            "breaker-timeouts", cfg.consecutiveTimeouts));
        cfg.backoffInitialMs = args.getDouble("breaker-backoff-ms",
                                              cfg.backoffInitialMs);
        cfg.backoffMaxMs = args.getDouble("breaker-backoff-max-ms",
                                          cfg.backoffMaxMs);
        cfg.staleWhileBroken = args.has("stale-while-broken");
        cfg.minSamples = std::min(cfg.minSamples, cfg.windowOps);
        return cfg;
    }

    /** @throws ConfigError on out-of-range values. */
    void validate() const
    {
        if (windowOps == 0)
            throw ConfigError("--breaker-window must be >= 1");
        if (failureRateThreshold <= 0.0 ||
            failureRateThreshold > 1.0)
            throw ConfigError(
                "--breaker-rate must be in (0, 1], got " +
                std::to_string(failureRateThreshold));
        if (consecutiveTimeouts == 0)
            throw ConfigError("--breaker-timeouts must be >= 1");
        if (backoffInitialMs <= 0.0 ||
            backoffMaxMs < backoffInitialMs)
            throw ConfigError("--breaker-backoff-ms must be > 0 and "
                              "<= --breaker-backoff-max-ms");
        if (jitterFraction < 0.0 || jitterFraction >= 1.0)
            throw ConfigError("breaker jitter must be in [0, 1)");
    }
};

class CircuitBreaker
{
  public:
    enum class State
    {
        Closed,
        Open,
        HalfOpen
    };

    /** admit() verdict for one would-be backend fetch. */
    enum class Admit
    {
        Proceed,  ///< circuit closed, fetch normally
        Probe,    ///< half-open: this fetch is the probe
        FailFast, ///< open: do not fetch
    };

    CircuitBreaker(const BreakerConfig &config, unsigned id)
        : config_(config), id_(id)
    {
        window_.reserve(config_.windowOps);
    }

    /** Would admit() proceed without a look at the clock?  True while
     *  the circuit is closed (or the breaker disabled); lock-free. */
    bool closed() const
    {
        return !config_.enabled ||
               state_.load(std::memory_order_acquire) == State::Closed;
    }

    /** May this miss start a backend fetch at @p now_ns?  A Probe
     *  verdict claims the half-open slot; the caller must report the
     *  probe's outcome via onSuccess/onFailure. */
    Admit admit(std::uint64_t now_ns)
    {
        if (closed())
            return Admit::Proceed;
        std::lock_guard<std::mutex> lock(mutex_);
        switch (state_.load(std::memory_order_relaxed)) {
        case State::Closed:
            return Admit::Proceed;
        case State::Open:
            if (now_ns < openUntilNs_) {
                ++fastFails_;
                return Admit::FailFast;
            }
            state_.store(State::HalfOpen, std::memory_order_release);
            probeInFlight_ = true;
            return Admit::Probe;
        case State::HalfOpen:
            if (probeInFlight_) {
                ++fastFails_;
                return Admit::FailFast;
            }
            probeInFlight_ = true;
            return Admit::Probe;
        }
        return Admit::Proceed; // unreachable
    }

    /** A fetch succeeded.  Takes no time: only a failure can move
     *  the breaker's deadline. */
    void onSuccess()
    {
        if (!config_.enabled)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        consecutiveTimeouts_ = 0;
        if (state_.load(std::memory_order_relaxed) == State::HalfOpen) {
            // Probe succeeded: close and forget the whole episode.
            state_.store(State::Closed, std::memory_order_release);
            probeInFlight_ = false;
            trips_ = 0;
            window_.clear();
            windowPos_ = 0;
            return;
        }
        recordOutcome(false);
    }

    void onFailure(bool timeout, std::uint64_t now_ns)
    {
        if (!config_.enabled)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        consecutiveTimeouts_ =
            timeout ? consecutiveTimeouts_ + 1 : 0;
        const State state = state_.load(std::memory_order_relaxed);
        if (state == State::HalfOpen) {
            // Probe failed: next backoff step.
            probeInFlight_ = false;
            trip(now_ns);
            return;
        }
        if (state != State::Closed)
            return; // late completion from before the trip
        recordOutcome(true);
        if (consecutiveTimeouts_ >= config_.consecutiveTimeouts ||
            windowTripped())
            trip(now_ns);
    }

    State state() const { return state_.load(std::memory_order_acquire); }

    /** Closed -> Open transitions (including half-open reopens). */
    std::uint64_t opens() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return opens_;
    }

    /** Fetches refused while open / probe pending. */
    std::uint64_t fastFails() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return fastFails_;
    }

    const BreakerConfig &config() const { return config_; }

    /** The deterministic backoff for trip number @p trips (>= 1), in
     *  nanoseconds.  Exposed for tests pinning the jitter draw. */
    std::uint64_t backoffNs(unsigned trips) const
    {
        double ms = config_.backoffInitialMs;
        for (unsigned i = 1; i < trips && ms < config_.backoffMaxMs;
             ++i)
            ms *= 2.0;
        ms = std::min(ms, config_.backoffMaxMs);
        const std::uint64_t h = hashMix64(
            config_.seed ^ (id_ + 1) * 0x9E3779B97F4A7C15ull ^
            trips * 0xBF58476D1CE4E5B9ull);
        const double draw =
            static_cast<double>(h >> 11) * 0x1.0p-53;
        const double factor = 1.0 - config_.jitterFraction +
                              2.0 * config_.jitterFraction * draw;
        return static_cast<std::uint64_t>(ms * factor * 1.0e6);
    }

  private:
    void trip(std::uint64_t now_ns)
    {
        state_.store(State::Open, std::memory_order_release);
        ++trips_;
        ++opens_;
        openUntilNs_ = now_ns + backoffNs(trips_);
        window_.clear();
        windowPos_ = 0;
        consecutiveTimeouts_ = 0;
    }

    void recordOutcome(bool failure)
    {
        if (window_.size() < config_.windowOps) {
            window_.push_back(failure);
        } else {
            window_[windowPos_] = failure;
            windowPos_ = (windowPos_ + 1) % config_.windowOps;
        }
    }

    bool windowTripped() const
    {
        if (window_.size() < config_.minSamples)
            return false;
        const auto failures = static_cast<double>(
            std::count(window_.begin(), window_.end(), true));
        return failures / static_cast<double>(window_.size()) >=
               config_.failureRateThreshold;
    }

    const BreakerConfig config_;
    const unsigned id_;

    mutable std::mutex mutex_;
    /** Written only under mutex_; read lock-free by closed(). */
    std::atomic<State> state_{State::Closed};
    bool probeInFlight_ = false;
    unsigned trips_ = 0;
    unsigned consecutiveTimeouts_ = 0;
    std::uint64_t openUntilNs_ = 0;
    std::uint64_t opens_ = 0;
    std::uint64_t fastFails_ = 0;
    std::vector<bool> window_;
    std::size_t windowPos_ = 0;
};

} // namespace csr::serve

#endif // CSR_SERVE_CIRCUITBREAKER_H
