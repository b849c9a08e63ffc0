/**
 * @file
 * Deterministic fault injection: the one decision core behind
 * csrserve's wire chaos and csrsim's sweep-cell faults.
 *
 * Decisions are a pure function of *what* is being perturbed, never
 * of *when* or *on which thread*:
 *
 *     decide(cfg, site, a, b) = f(cfg.seed, site, a, b)
 *
 * where (a, b) name the operation deterministically -- a key and its
 * per-key fetch-attempt ordinal for backend faults, a connection
 * serial and write ordinal for short writes.  Two runs with the same
 * seed and the same client stream inject the same backend faults into
 * the same fetches, no matter how the epoll workers interleave; CI
 * soaks diff their summaries per seed.  A sweep names a cell attempt
 * by (cell hash, attempt), so the same cells fail at any --jobs and a
 * retry draws a fresh decision.
 *
 * Sites split into two determinism classes, documented per enumerator:
 * CONTENT faults change observable replies/totals deterministically;
 * TIMING faults (short writes, deferred accepts) only perturb pacing
 * and must leave every byte of the summary unchanged.  ConnReset is
 * the deliberate exception -- it loses queued commands, so it is
 * opt-in (`resets`) and excluded from summary-diffed CI legs.
 * SweepCell is csrsim's: a firing decision fails one cell attempt,
 * which the sweep retries or records as a failure.
 *
 * Header-only, like Errors.h: depended on from src/serve, src/sim
 * and tools without dragging a library edge.
 */

#ifndef CSR_ROBUST_NETCHAOS_H
#define CSR_ROBUST_NETCHAOS_H

#include <cstdint>
#include <string>

#include "robust/Errors.h"
#include "util/Random.h"

namespace csr
{

/** Named chaos sites. */
enum class ChaosSite : unsigned
{
    ShortWrite = 0, ///< TIMING: cap one send() below the queued bytes
    DeferAccept,    ///< TIMING: delay servicing an accepted socket
    BackendError,   ///< CONTENT: fetchAsync completes with an error
    BackendLatency, ///< CONTENT: scale a fetch's reported latency
    ConnReset,      ///< LOSSY: close a connection mid-command (opt-in)
    SweepCell,      ///< SWEEP: fail one sweep cell attempt (csrsim)
    Count_,
};

inline const char *
chaosSiteName(ChaosSite site)
{
    switch (site) {
    case ChaosSite::ShortWrite: return "ShortWrite";
    case ChaosSite::DeferAccept: return "DeferAccept";
    case ChaosSite::BackendError: return "BackendError";
    case ChaosSite::BackendLatency: return "BackendLatency";
    case ChaosSite::ConnReset: return "ConnReset";
    case ChaosSite::SweepCell: return "SweepCell";
    case ChaosSite::Count_: break;
    }
    return "?";
}

/** Chaos knobs: csrserve --chaos-rate / --chaos-seed /
 *  --chaos-resets, or csrsim sweep --fault-rate / --fault-seed.
 *  rate <= 0 turns every site off. */
struct ChaosConfig
{
    double rate = 0.0;
    std::uint64_t seed = 0;
    /** Enable the lossy ConnReset site (drops queued commands, so the
     *  deterministic-summary contract no longer holds). */
    bool resets = false;

    bool enabled() const { return rate > 0.0; }

    /** Consume --chaos-* flags from @p args (templated on the CliArgs
     *  accessor surface so the robust layer keeps zero util header
     *  dependencies beyond Random.h). */
    template <typename Args>
    static ChaosConfig fromArgs(const Args &args)
    {
        ChaosConfig cfg;
        cfg.rate = args.getDouble("chaos-rate", cfg.rate);
        cfg.seed = args.getUInt("chaos-seed", cfg.seed);
        cfg.resets = args.has("chaos-resets");
        return cfg;
    }

    /** @throws ConfigError on out-of-range values. */
    void validate() const
    {
        if (rate < 0.0 || rate > 1.0)
            throw ConfigError("--chaos-rate must be in [0, 1], got " +
                              std::to_string(rate));
        if (resets && !(rate > 0.0))
            throw ConfigError(
                "--chaos-resets requires --chaos-rate > 0");
    }
};

namespace detail
{
/** One shared draw chain for every chaos decision: mix the seed with
 *  a site-distinct constant and the two operation coordinates.  The
 *  0x9E37... odd multiplier keeps neighbouring sites/ordinals from
 *  producing correlated draws.  New sites go last in ChaosSite so
 *  the draws of the existing ones never change. */
inline std::uint64_t
chaosHash(const ChaosConfig &cfg, ChaosSite site, std::uint64_t a,
          std::uint64_t b)
{
    std::uint64_t h = hashMix64(cfg.seed ^ 0xC4A05C4A05ull);
    h = hashMix64(h ^ (static_cast<std::uint64_t>(site) + 1) *
                          0x9E3779B97F4A7C15ull);
    h = hashMix64(h ^ a * 0xBF58476D1CE4E5B9ull);
    h = hashMix64(h ^ b * 0x94D049BB133111EBull);
    return h;
}
} // namespace detail

/** Uniform draw in [0, 1) for (site, a, b) -- pure function of the
 *  config.  Used both for Bernoulli decisions and for scaling
 *  magnitudes (latency spike factor, short-write cap). */
inline double
chaosDraw(const ChaosConfig &cfg, ChaosSite site, std::uint64_t a,
          std::uint64_t b = 0)
{
    // Top 53 bits -> double in [0, 1), exactly representable.
    return static_cast<double>(detail::chaosHash(cfg, site, a, b) >>
                               11) *
           0x1.0p-53;
}

/** Deterministic Bernoulli decision: should this (site, a, b) fault
 *  fire?  Always false when chaos is off. */
inline bool
chaosDecide(const ChaosConfig &cfg, ChaosSite site, std::uint64_t a,
            std::uint64_t b = 0)
{
    if (!cfg.enabled())
        return false;
    if (site == ChaosSite::ConnReset && !cfg.resets)
        return false;
    return chaosDraw(cfg, site, a, b) < cfg.rate;
}

} // namespace csr

#endif // CSR_ROBUST_NETCHAOS_H
