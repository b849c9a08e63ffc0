/**
 * @file
 * The shared KV stream, the in-process service pass, and kv-inproc:
 * the stream replayed through replay::replayTrace for all five
 * policies, then served by an ACL CacheService.  No sockets.
 */

#include "Kv.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <thread>

#include "cache/CacheModel.h"
#include "cache/PolicyFactory.h"
#include "replay/Replayer.h"
#include "replay/TraceReader.h"
#include "replay/TraceWriter.h"
#include "robust/Errors.h"
#include "serve/KeyGenerator.h"
#include "serve/net/ClientLoad.h"
#include "util/Random.h"

namespace perfbench
{

using namespace csr;
using namespace csr::serve;

KvStream
makeKvStream(const std::string &path, std::uint64_t seed)
{
    // bench_replay's fixture shape over a 1M-key space: Zipfian keys,
    // 20% SETs, about 0.4% DELs, and bimodal cost hints (15% of keys
    // on a 16x slower tier) so the cost-sensitive policies diverge.
    {
        WorkloadMix mix;
        mix.numKeys = 1 << 20;
        mix.writeFraction = 0.2;
        KeyGenerator gen(mix, seed);
        replay::TraceWriter writer(path);
        for (std::uint64_t i = 0; i < kKvOps; ++i) {
            const Op op = gen.next();
            replay::ReplayRecord rec;
            rec.tsNs = i * 1000;
            rec.key = op.key;
            rec.op = op.write ? replay::TraceOp::Set : replay::TraceOp::Get;
            if (hashMix64(i ^ (seed << 20)) % 256 == 0)
                rec.op = replay::TraceOp::Del;
            rec.valueSize = 8;
            rec.costHint =
                hashMix64(op.key ^ seed) % 100 < 15 ? 32'000 : 2'000;
            writer.append(rec);
        }
        writer.finish();
    }

    KvStream stream;
    stream.path = path;
    replay::TraceReader reader(path);
    stream.fileBytes = reader.fileBytes();
    stream.ops.reserve(reader.recordCount());
    replay::ReplayBlock block;
    for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
        reader.readBlock(b, block);
        for (std::size_t i = 0; i < block.size(); ++i)
            stream.ops.push_back(
                {block.key[i], static_cast<KvVerb>(block.op[i])});
    }
    const unsigned shards = kvServeConfig().shards;
    for (std::uint32_t i = 0; i < stream.ops.size(); ++i)
        stream.parts[net::wireShardOf(stream.ops[i].key, shards) %
                     kKvThreads]
            .push_back(i);
    return stream;
}

ServeConfig
kvServeConfig()
{
    return ServeConfig{};
}

SyntheticBackendConfig
kvBackendConfig(std::uint64_t seed)
{
    SyntheticBackendConfig config; // simulated latency, no spinning
    config.seed = hashMix64(seed + 0xBACE);
    return config;
}

std::uint64_t
kvSetValue(std::uint64_t seed, std::uint64_t key)
{
    return hashMix64(key + 0x9E3779B97F4A7C15ull * (seed + 1));
}

std::string
serveCounters(const ServeTotals &t)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "gets=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
                  " stores=%" PRIu64 " storeHits=%" PRIu64
                  " evictions=%" PRIu64 " trackedKeys=%" PRIu64
                  " missCostNs=%.17g storeCostNs=%.17g"
                  " backendFetches=%" PRIu64 " coalesced=%" PRIu64,
                  t.gets, t.hits, t.misses, t.stores, t.storeHits,
                  t.evictions, t.trackedKeys, t.missCostNs,
                  t.storeCostNs, t.backendFetches, t.coalescedMisses);
    return buf;
}

namespace
{

/** Times every backend call of a traced pass. */
class TimedBackend : public Backend
{
  public:
    explicit TimedBackend(Backend &inner) : inner_(inner) {}

    BackendResult
    fetch(Addr key, std::uint64_t salt) override
    {
        const auto t0 = Clock::now();
        const BackendResult r = inner_.fetch(key, salt);
        note(t0);
        return r;
    }

    BackendResult
    store(Addr key, std::uint64_t value, std::uint64_t salt) override
    {
        const auto t0 = Clock::now();
        const BackendResult r = inner_.store(key, value, salt);
        note(t0);
        return r;
    }

    std::string describe() const override { return inner_.describe(); }

    std::uint64_t calls() const { return calls_.load(); }
    double seconds() const { return static_cast<double>(ns_.load()) / 1e9; }

  private:
    void
    note(Clock::time_point t0)
    {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0)
                            .count();
        calls_.fetch_add(1, std::memory_order_relaxed);
        ns_.fetch_add(static_cast<std::uint64_t>(ns),
                      std::memory_order_relaxed);
    }

    Backend &inner_;
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> ns_{0};
};

struct ThreadOut
{
    std::uint64_t timedOps = 0;
    std::string failure;
    CpuUse cpu;
    Samples getNs;
    Samples putNs;
    std::uint64_t errors = 0;
};

/** Run ops [from, to) of one thread's part; kTimed times each call. */
template <bool kTimed>
void
serveRange(CacheService &service, const KvStream &stream,
           const std::vector<std::uint32_t> &part, std::size_t from,
           std::size_t to, std::uint64_t seed, ServePass &pass,
           ThreadOut &out, SpanRecorder &spans)
{
    double get_sec = 0.0, put_sec = 0.0, del_sec = 0.0;
    for (std::size_t i = from; i < to; ++i) {
        const std::uint32_t idx = part[i];
        const KvOp &op = stream.ops[idx];
        const auto t0 = kTimed ? Clock::now() : Clock::time_point{};
        try {
            switch (op.verb) {
              case KvVerb::Get:
                pass.getValues[idx] = service.get(op.key).value;
                break;
              case KvVerb::Set:
                service.put(op.key, kvSetValue(seed, op.key));
                break;
              case KvVerb::Del:
                service.del(op.key);
                break;
            }
        } catch (const csr::Error &) {
            ++out.errors;
        }
        if constexpr (kTimed) {
            const auto t1 = Clock::now();
            const double sec = secondsBetween(t0, t1);
            const char *name = op.verb == KvVerb::Get   ? "serve.get"
                               : op.verb == KvVerb::Set ? "serve.put"
                                                        : "serve.del";
            if (op.verb == KvVerb::Get) {
                out.getNs.add(sec * 1e9);
                get_sec += sec;
            } else if (op.verb == KvVerb::Set) {
                out.putNs.add(sec * 1e9);
                put_sec += sec;
            } else {
                del_sec += sec;
            }
            if (i % SpanRecorder::kKeepEvery == 0)
                spans.keepCall(name, t0, t1);
        }
    }
    if constexpr (kTimed) {
        spans.addCalls("serve.get", get_sec);
        spans.addCalls("serve.put", put_sec);
        spans.addCalls("serve.del", del_sec);
    }
}

} // namespace

ServePass
runServePass(const KvStream &stream, std::uint64_t seed,
             SpanRecorder &spans)
{
    ServePass pass;
    pass.getValues.assign(stream.ops.size(), 0);
    SyntheticBackend synthetic(kvBackendConfig(seed));
    TimedBackend timed(synthetic);
    Backend &backend =
        spans.enabled() ? static_cast<Backend &>(timed) : synthetic;
    CacheService service(kvServeConfig(), backend);

    std::barrier sync(kKvThreads);
    std::array<ThreadOut, kKvThreads> outs;
    Clock::time_point start;
    const auto worker = [&](unsigned t) {
        bool arrived = false;
        try {
            Span span(spans, "serve.worker");
            const std::vector<std::uint32_t> &part = stream.parts[t];
            const auto warm = static_cast<std::size_t>(
                static_cast<double>(part.size()) * kWarmupFraction);
            serveRange<false>(service, stream, part, 0, warm, seed, pass,
                              outs[t], spans);
            arrived = true;
            sync.arrive_and_wait();
            if (t == 0)
                start = Clock::now();
            const CpuProbe cpu({currentTid()});
            if (spans.enabled())
                serveRange<true>(service, stream, part, warm, part.size(),
                                 seed, pass, outs[t], spans);
            else
                serveRange<false>(service, stream, part, warm, part.size(),
                                  seed, pass, outs[t], spans);
            outs[t].cpu = cpu.diff();
            outs[t].timedOps = part.size() - warm;
        } catch (const std::exception &e) {
            if (!arrived)
                sync.arrive_and_drop(); // never strand the other thread
            outs[t].failure = e.what();
        }
    };
    {
        Span span(spans, "serve.pass");
        std::thread other(worker, 1);
        worker(0);
        other.join();
    }
    pass.timedSec = secondsBetween(start, Clock::now());
    for (const ThreadOut &o : outs) {
        pass.timedOps += o.timedOps;
        pass.cpu += o.cpu;
        pass.getNs.append(o.getNs);
        pass.putNs.append(o.putNs);
        pass.errors += o.errors;
        if (!o.failure.empty())
            throw std::runtime_error("serve thread: " + o.failure);
    }
    pass.totals = service.totals();
    pass.backendCalls = timed.calls();
    pass.backendSec = timed.seconds();
    return pass;
}

namespace
{

const std::vector<PolicyKind> kPolicies = {
    PolicyKind::Lru, PolicyKind::GreedyDual, PolicyKind::Bcl,
    PolicyKind::Dcl, PolicyKind::Acl};

/** Replay geometry: the service's total capacity as one 8-way cache. */
replay::ReplayConfig
replayConfig(const KvStream &stream, PolicyKind policy)
{
    replay::ReplayConfig config;
    config.path = stream.path;
    config.cacheBytes = kvServeConfig().totalLines() * 64;
    config.assoc = 8;
    config.policy = policy;
    config.jobs = 1;
    return config;
}

std::string
replayCounters(const std::string &policy, const replay::ReplayTotals &t)
{
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "replay %s ops=%" PRIu64 " gets=%" PRIu64 " sets=%" PRIu64
                  " dels=%" PRIu64 " hits=%" PRIu64 " misses=%" PRIu64
                  " setHits=%" PRIu64 " evictions=%" PRIu64
                  " missCostNs=%" PRIu64 " storeCostNs=%" PRIu64 "\n",
                  policy.c_str(), t.ops, t.gets, t.sets, t.dels, t.hits,
                  t.misses, t.setHits, t.evictions, t.missCostNs,
                  t.storeCostNs);
    return buf;
}

struct Round
{
    std::map<std::string, double> replaySec; ///< by policy
    std::uint64_t replayOps = 0;
    double replayTotalSec = 0.0;
    ServePass serve;
    std::string counters;
    std::vector<double> costRatios;
};

/**
 * The cache+policy layer without decode or the replay engine: the
 * stream's ops straight into CacheModel, as the replayer applies
 * them.  Gives the policy counters the replay API does not expose,
 * and must agree with replayTrace's totals.
 */
replay::ReplayTotals
policyPass(const KvStream &stream, PolicyKind kind, StatGroup &stats)
{
    const replay::ReplayConfig rc = replayConfig(stream, kind);
    const CacheGeometry geom(rc.cacheBytes, rc.assoc, rc.blockBytes);
    CacheModel model(geom, makePolicy(kind, geom, rc.policyParams));
    replay::TraceReader reader(stream.path);
    replay::ReplayTotals t;
    replay::ReplayBlock block;
    const auto evicted = [&t](int, Addr, std::uint32_t) { ++t.evictions; };
    for (std::uint64_t b = 0; b < reader.blockCount(); ++b) {
        reader.readBlock(b, block);
        for (std::size_t i = 0; i < block.size(); ++i) {
            const Addr addr = block.key[i] * rc.blockBytes;
            const std::uint32_t set = geom.setIndex(addr);
            const Addr tag = geom.tag(addr);
            const std::uint64_t cost =
                block.costHint[i] ? block.costHint[i] : rc.defaultCostNs;
            ++t.ops;
            switch (static_cast<replay::TraceOp>(block.op[i])) {
              case replay::TraceOp::Get:
                ++t.gets;
                if (model.access(set, tag) != kInvalidWay) {
                    ++t.hits;
                } else {
                    ++t.misses;
                    t.missCostNs += cost;
                    model.fillVictimOrFree(set, tag,
                                           static_cast<Cost>(cost), 0,
                                           evicted);
                }
                break;
              case replay::TraceOp::Set: {
                ++t.sets;
                t.storeCostNs += cost;
                const int way = model.access(set, tag);
                if (way != kInvalidWay) {
                    ++t.setHits;
                    model.updateCost(set, way, static_cast<Cost>(cost));
                } else {
                    model.fillVictimOrFree(set, tag,
                                           static_cast<Cost>(cost), 0,
                                           evicted);
                }
                break;
              }
              case replay::TraceOp::Del:
                ++t.dels;
                model.invalidateTag(set, tag);
                break;
            }
        }
    }
    stats = model.policy()->stats();
    return t;
}

Round
runRound(const KvStream &stream, std::uint64_t seed, SpanRecorder &spans,
         Outcome &out)
{
    Span span(spans, "kv-inproc.round");
    Round r;
    std::uint64_t lru_cost = 0;
    for (PolicyKind kind : kPolicies) {
        const std::string policy = policyKindName(kind);
        out.attempted += stream.ops.size();
        try {
            const auto t0 = Clock::now();
            replay::ReplayResult res;
            {
                Span s(spans, "replay.run");
                res = replay::replayTrace(replayConfig(stream, kind));
            }
            const double sec = secondsBetween(t0, Clock::now());
            r.replaySec[policy] = sec;
            r.replayTotalSec += sec;
            r.replayOps += res.totals.ops;
            r.counters += replayCounters(policy, res.totals);
            if (kind == PolicyKind::Lru)
                lru_cost = res.totals.missCostNs;
            else if (lru_cost > 0)
                r.costRatios.push_back(
                    static_cast<double>(res.totals.missCostNs) /
                    static_cast<double>(lru_cost));
        } catch (const csr::Error &e) {
            out.fail("replay " + policy + ": " + e.what());
        }
    }
    out.attempted += stream.ops.size();
    r.serve = runServePass(stream, seed, spans);
    if (r.serve.errors)
        out.failed += r.serve.errors;
    r.counters += "serve " + serveCounters(r.serve.totals) + "\n";
    return r;
}

std::vector<Round>
measure(const KvStream &stream, std::uint64_t seed, double seconds,
        SpanRecorder &spans, Outcome &out)
{
    std::vector<Round> rounds;
    const auto start = Clock::now();
    do {
        Round r = runRound(stream, seed, spans, out);
        if (!rounds.empty()) {
            if (r.counters != rounds.front().counters)
                out.fail("kv-inproc round " +
                         std::to_string(rounds.size()) +
                         " counters differ from round 0");
            if (r.serve.getValues != rounds.front().serve.getValues)
                out.fail("kv-inproc round " +
                         std::to_string(rounds.size()) +
                         " GET values differ from round 0");
        }
        // Only the first round's GET values are compared against;
        // freeing the others keeps peak RSS independent of the
        // round count.
        if (!rounds.empty())
            std::vector<std::uint64_t>().swap(r.serve.getValues);
        rounds.push_back(std::move(r));
    } while (secondsBetween(start, Clock::now()) < seconds);
    return rounds;
}

struct Rates
{
    std::optional<double> serveOpsPerSec;
    std::optional<double> replayOpsPerSec;
    std::optional<double> serveCpuNsPerOp;
    std::optional<double> serveUserNsPerOp;
    std::optional<double> serveSysNsPerOp;
    std::map<std::string, double> replayNsPerOp;
};

/** Rates over a whole run: total work / total time (see paper-sim's
 *  rates() for why not a median of rounds). */
Rates
rates(const std::vector<Round> &rounds)
{
    Rates out;
    double serve_ops = 0, serve_sec = 0, replay_ops = 0, replay_sec = 0;
    CpuUse cpu;
    std::map<std::string, double> policy_sec;
    for (const Round &r : rounds) {
        serve_ops += static_cast<double>(r.serve.timedOps);
        serve_sec += r.serve.timedSec;
        cpu += r.serve.cpu;
        replay_ops += static_cast<double>(r.replayOps);
        replay_sec += r.replayTotalSec;
        for (const auto &[policy, sec] : r.replaySec)
            policy_sec[policy] += sec;
    }
    out.serveOpsPerSec = ratio(serve_ops, serve_sec);
    out.replayOpsPerSec = ratio(replay_ops, replay_sec);
    out.serveCpuNsPerOp = ratio(cpu.cpuNs, serve_ops);
    out.serveUserNsPerOp = ratio(cpu.userNs, serve_ops);
    out.serveSysNsPerOp = ratio(cpu.sysNs, serve_ops);
    for (const auto &[policy, sec] : policy_sec)
        out.replayNsPerOp[policy] =
            sec * 1e9 / static_cast<double>(kKvOps * rounds.size());
    return out;
}

} // namespace

void
runKvInproc(const RunArgs &args, SpanRecorder &spans, Outcome &out)
{
    Report &rep = out.report;
    const std::string path = args.workDir + "/kv-inproc.csrt";
    std::vector<double> setup_sec;
    KvStream stream;
    for (int i = 0; i < (args.countersOnly ? 1 : kSetupRepeats); ++i) {
        const auto t0 = Clock::now();
        stream = KvStream{}; // one stream alive at a time
        stream = makeKvStream(path, args.seed);
        setup_sec.push_back(secondsBetween(t0, Clock::now()));
    }

    SpanRecorder off(false);
    const double untraced_sec =
        args.countersOnly ? 0.0 : args.trace ? args.seconds / 2 : args.seconds;
    const std::vector<Round> rounds =
        measure(stream, args.seed, untraced_sec, off, out);
    out.counters = rounds.front().counters;
    if (args.countersOnly)
        return;
    const Rates e2e = rates(rounds);

    rep.set("setup_s", "s", median(setup_sec));
    rep.set("replay_ops_per_s", "1/s", e2e.replayOpsPerSec);
    rep.set("serve_ops_per_s", "1/s", e2e.serveOpsPerSec);
    rep.set("miss_cost_ratio", "ratio", geomean(rounds.front().costRatios));
    rep.set("ops_per_s", "1/s", e2e.serveOpsPerSec);
    rep.set("aux_ops_per_s", "1/s", e2e.replayOpsPerSec);
    rep.set("cpu_us_per_op", "us",
            e2e.serveCpuNsPerOp ? std::optional<double>(*e2e.serveCpuNsPerOp / 1e3)
                                : std::nullopt);

    if (!args.trace)
        return;

    // Decode alone: the bottom rung of the replay ladder.
    std::vector<double> decode_ns;
    const auto decode_until = Clock::now() + std::chrono::milliseconds(200);
    do {
        Span span(spans, "replay.decode");
        const auto t0 = Clock::now();
        replay::TraceReader reader(stream.path);
        replay::ReplayBlock block;
        for (std::uint64_t b = 0; b < reader.blockCount(); ++b)
            reader.readBlock(b, block);
        decode_ns.push_back(secondsBetween(t0, Clock::now()) * 1e9 /
                            static_cast<double>(reader.recordCount()));
    } while (Clock::now() < decode_until);
    const double decode = *median(decode_ns);
    rep.set("replay.decode_ns_per_op", "ns", decode);
    rep.set("replay.bytes_per_record", "B",
            static_cast<double>(stream.fileBytes) /
                static_cast<double>(stream.ops.size()));

    std::map<std::string, std::uint64_t> policy_counters;
    for (PolicyKind kind : kPolicies) {
        StatGroup stats;
        const replay::ReplayTotals t = policyPass(stream, kind, stats);
        const std::string expect =
            replayCounters(policyKindName(kind), t);
        if (rounds.front().counters.find(expect) == std::string::npos)
            out.fail("policy pass " + policyKindName(kind) +
                     " disagrees with replayTrace");
        for (const auto &[name, v] : stats.all())
            policy_counters[name] += v;
    }
    reportPolicyCounters(rep, policy_counters);

    const std::vector<Round> traced =
        measure(stream, args.seed, args.seconds / 2, spans, out);
    const Rates tr = rates(traced);
    for (const auto &[policy, ns] : tr.replayNsPerOp) {
        rep.set("replay.ns_per_op." + metricName(policy), "ns", ns);
        rep.set("cache.ns_per_op." + metricName(policy), "ns", ns - decode);
    }
    Samples get_ns, put_ns;
    std::uint64_t backend_calls = 0;
    double backend_sec = 0.0;
    for (const Round &r : traced) {
        get_ns.append(r.serve.getNs);
        put_ns.append(r.serve.putNs);
        backend_calls += r.serve.backendCalls;
        backend_sec += r.serve.backendSec;
    }
    rep.percentile("serve.get_ns.p50", "ns", get_ns, 0.50);
    rep.percentile("serve.get_ns.p99", "ns", get_ns, 0.99);
    rep.percentile("serve.put_ns.p50", "ns", put_ns, 0.50);
    rep.percentile("serve.put_ns.p99", "ns", put_ns, 0.99);
    rep.set("serve.cpu_user_ns_per_op", "ns", e2e.serveUserNsPerOp);
    rep.set("serve.cpu_sys_ns_per_op", "ns", e2e.serveSysNsPerOp);
    const ServeTotals &totals = rounds.front().serve.totals;
    rep.set("serve.hit_ratio", "ratio", totals.hitRatio());
    rep.set("serve.backend_fetches", "count",
            static_cast<double>(totals.backendFetches));
    rep.set("serve.backend_ns_per_call", "ns",
            backend_calls ? std::optional<double>(
                                backend_sec * 1e9 /
                                static_cast<double>(backend_calls))
                          : std::nullopt);
    // The service's cost over the policy layer on the same stream: CPU
    // per served op minus the ACL replay's per-op time (single-threaded,
    // so its wall time is its CPU time).
    if (e2e.serveCpuNsPerOp)
        rep.set("serve.overhead_ns_per_op", "ns",
                *e2e.serveCpuNsPerOp - e2e.replayNsPerOp.at("ACL"));
    rep.set("self_s.serve.worker", "s", spans.selfSeconds("serve.worker"));
    rep.set("self_s.serve.pass", "s", spans.selfSeconds("serve.pass"));
    if (e2e.serveOpsPerSec && tr.serveOpsPerSec)
        rep.set("trace.overhead_frac", "ratio",
                1.0 - *tr.serveOpsPerSec / *e2e.serveOpsPerSec);
}

} // namespace perfbench
