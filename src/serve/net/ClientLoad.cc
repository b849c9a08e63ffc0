#include "serve/net/ClientLoad.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "robust/Errors.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespClient.h"
#include "serve/net/Server.h"
#include "telemetry/Telemetry.h"
#include "util/CliArgs.h"
#include "util/MathUtil.h"
#include "util/Random.h"

namespace csr::serve::net
{

namespace
{

/** Per-connection accumulators, merged after the threads join. */
struct ConnOutput
{
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t dels = 0;
    std::uint64_t errors = 0;
    std::uint64_t busy = 0;
    std::uint64_t mismatches = 0;
    Histogram opLatencyNs;
};

} // namespace

unsigned
wireShardOf(Addr key, unsigned shards)
{
    if (shards == 1)
        return 0;
    const unsigned shift =
        64u - static_cast<unsigned>(floorLog2(shards));
    return static_cast<unsigned>(hashMix64(key) >> shift);
}

ClientConfig
ClientConfig::fromArgs(const CliArgs &args)
{
    ClientConfig config;
    const auto [host, port] = parseHostPort(args.get("connect", ""));
    config.host = host;
    config.port = port;
    config.connections = static_cast<unsigned>(
        args.getUInt("connections", config.connections));
    config.pipeline = args.getUInt("pipeline", config.pipeline);
    config.timeoutSec =
        args.getDouble("net-timeout", config.timeoutSec);
    config.serverShards = static_cast<unsigned>(
        args.getUInt("shards", config.serverShards));
    config.harness = HarnessConfig::fromArgs(args);
    config.validate();
    return config;
}

void
ClientConfig::validate() const
{
    if (port == 0)
        throw ConfigError("--connect needs an explicit port (the "
                          "server prints its resolved one)");
    if (connections == 0)
        throw ConfigError("--connections must be at least 1");
    if (pipeline == 0)
        throw ConfigError("--pipeline must be at least 1");
    if (timeoutSec < 0.0)
        throw ConfigError("--net-timeout must be non-negative");
    // Plumb-through check: SO_RCVTIMEO rounds a positive-but-tiny
    // bound down to zero microseconds, which the kernel reads as
    // "no timeout" -- the exact opposite of what was asked for.
    if (timeoutSec > 0.0 && timeoutSec < 1.0e-3)
        throw ConfigError(
            "--net-timeout must be 0 (unbounded) or >= 0.001 s; " +
            std::to_string(timeoutSec) +
            " would silently become unbounded");
    if (serverShards == 0 ||
        (serverShards & (serverShards - 1)) != 0)
        throw ConfigError("--shards must be a power of two (it is "
                          "the wire partition key)");
    harness.validate();
}

ClientResult
runClientLoad(const ClientConfig &config)
{
    config.validate();

    // Same stream, same order as runLoad() -- partitioned by owning
    // server shard so each shard's subsequence arrives in global
    // stream order over exactly one connection.
    const OpPlan plan = planOps(
        config.harness, config.connections,
        [&](std::uint64_t, const Op &op) -> std::size_t {
            return wireShardOf(op.key, config.serverShards) %
                   config.connections;
        });
    std::vector<ConnOutput> outputs(config.connections);

    // Worker threads may throw (refused connect, timeout); the first
    // exception wins and is rethrown on the caller's thread.
    std::exception_ptr failure;
    std::atomic<bool> failed{false};

    const auto conn_fn = [&](std::size_t c) {
        CSR_TRACE_SPAN_DYN("net", "client conn " + std::to_string(c));
        using Clock = std::chrono::steady_clock;
        ConnOutput &out = outputs[c];
        RespClient client(config.host, config.port,
                          config.timeoutSec);
        // One window at a time: encode up to --pipeline commands,
        // write them with one flush, then read their replies.
        std::vector<char> window;
        window.reserve(config.pipeline);
        Clock::time_point sent_at;

        const auto readOne = [&](char verb) {
            const RespClient::Reply reply = client.readReply();
            out.opLatencyNs.add(static_cast<std::uint64_t>(
                std::chrono::nanoseconds(Clock::now() - sent_at)
                    .count()));
            if (reply.isError()) {
                if (reply.text.rfind("BUSY", 0) == 0)
                    ++out.busy;
                else
                    ++out.errors;
                return;
            }
            // SET replies +OK, DEL replies :0/:1, GET replies a
            // non-null bulk (a replayed GET may legitimately miss a
            // deleted key, but the server still fetches and returns
            // it -- a null bulk is a protocol bug).
            const bool ok = verb == 'S'
                                ? reply.type == '+'
                                : verb == 'D'
                                      ? reply.type == ':'
                                      : (reply.type == '$' &&
                                         !reply.isNull);
            if (!ok)
                ++out.mismatches;
        };

        const auto flushWindow = [&] {
            sent_at = Clock::now();
            client.flush();
            for (const char verb : window)
                readOne(verb);
            window.clear();
        };

        for (const Op &op : plan.parts[c]) {
            if (op.del) {
                client.send({"DEL", std::to_string(op.key)});
                ++out.dels;
                window.push_back('D');
            } else if (op.write) {
                client.send({"SET", std::to_string(op.key),
                             std::to_string(harnessPayload(
                                 config.harness.seed, op.key))});
                ++out.sets;
                window.push_back('S');
            } else {
                client.send({"GET", std::to_string(op.key)});
                ++out.gets;
                window.push_back('G');
            }
            if (window.size() == config.pipeline)
                flushWindow();
        }
        if (!window.empty())
            flushWindow();
    };

    WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(config.connections);
    for (unsigned c = 0; c < config.connections; ++c) {
        threads.emplace_back([&, c] {
            try {
                conn_fn(c);
            } catch (...) {
                if (!failed.exchange(true))
                    failure = std::current_exception();
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    if (failed.load())
        std::rethrow_exception(failure);

    ClientResult result;
    result.harness.wallSec = wall.elapsedSec();
    result.harness.ops = plan.ops;
    result.harness.workers = config.connections;
    result.harness.qps =
        result.harness.wallSec > 0.0
            ? static_cast<double>(plan.ops) /
                  result.harness.wallSec
            : 0.0;
    for (const ConnOutput &out : outputs) {
        result.harness.opLatencyNs.merge(out.opLatencyNs);
        result.sentGets += out.gets;
        result.sentSets += out.sets;
        result.sentDels += out.dels;
        result.errorReplies += out.errors;
        result.busyReplies += out.busy;
        result.typeMismatches += out.mismatches;
    }

    // The deterministic half of the report is the server's: INFO over
    // one more connection, parsed back into ServeTotals.
    RespClient info_client(config.host, config.port,
                           config.timeoutSec);
    const RespClient::Reply info = info_client.roundTrip({"INFO"});
    if (info.type != '$' || info.isNull)
        throw NetError("INFO did not return a bulk reply");
    result.harness.totals = parseInfoTotals(info.text);
    return result;
}

} // namespace csr::serve::net
