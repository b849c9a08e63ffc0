/**
 * @file
 * The KV stream kv-inproc and kv-wire share, and the in-process
 * CacheService pass both run on it.
 */

#ifndef PERFBENCH_KV_H
#define PERFBENCH_KV_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "Measure.h"
#include "Workloads.h"
#include "serve/CacheService.h"
#include "serve/SyntheticBackend.h"

namespace perfbench
{

/** Ops in the recorded stream. */
inline constexpr std::uint64_t kKvOps = 300'000;
/** Load threads of the in-process service, and wire connections. */
inline constexpr unsigned kKvThreads = 2;

enum class KvVerb : std::uint8_t
{
    Get,
    Set,
    Del,
};

struct KvOp
{
    std::uint64_t key = 0;
    KvVerb verb = KvVerb::Get;
};

/** The recorded stream, decoded and partitioned. */
struct KvStream
{
    std::string path;           ///< the .csrt file
    std::uint64_t fileBytes = 0;
    std::vector<KvOp> ops;      ///< in trace order
    /** Op indices per load thread / connection, by owning shard. */
    std::array<std::vector<std::uint32_t>, kKvThreads> parts;
};

/** Record the seed's stream to @p path, then decode and partition
 *  it through the public TraceReader (the program's input). */
KvStream makeKvStream(const std::string &path, std::uint64_t seed);

/** The service configuration both KV workloads serve with: the
 *  library defaults (8 shards, 8-way, ACL, locked hit path). */
csr::serve::ServeConfig kvServeConfig();
csr::serve::SyntheticBackendConfig kvBackendConfig(std::uint64_t seed);

/** Value a SET of @p key carries (what later GETs may return). */
std::uint64_t kvSetValue(std::uint64_t seed, std::uint64_t key);

/** Canonical text of the deterministic ServeTotals fields. */
std::string serveCounters(const csr::serve::ServeTotals &t);

/** One pass of the stream through a fresh service. */
struct ServePass
{
    csr::serve::ServeTotals totals;
    /** Ops and wall time after the warm-up prefix. */
    std::uint64_t timedOps = 0;
    double timedSec = 0.0;
    /** CPU of the load threads over the timed part. */
    CpuUse cpu;
    /** Value each GET returned, by op index (0 for other ops). */
    std::vector<std::uint64_t> getValues;
    /** Per-call latencies, traced passes only. */
    Samples getNs;
    Samples putNs;
    std::uint64_t backendCalls = 0;
    double backendSec = 0.0;
    std::uint64_t errors = 0;
};

/** Share of each thread's ops run before the timer starts. */
inline constexpr double kWarmupFraction = 0.2;

/**
 * Drive the stream through a fresh default-config CacheService from
 * kKvThreads threads (this one and one more), each owning the ops of
 * its shards.  Timing starts after every thread has run its warm-up
 * prefix.  With a traced @p spans, every call is timed.
 */
ServePass runServePass(const KvStream &stream, std::uint64_t seed,
                       SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_KV_H
