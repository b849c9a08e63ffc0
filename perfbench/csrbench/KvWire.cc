/**
 * @file
 * kv-wire: the kv-inproc stream over loopback RESP to an in-process
 * NetServer with one net worker, serving the same CacheService
 * configuration.
 *
 *  - Closed loop: kKvThreads connections (this thread and one more),
 *    each sending its shards' ops in windows of kWindow.  The server's
 *    totals, read back through INFO, must equal the in-process
 *    service's on the same stream, and every GET must return the
 *    value the in-process GET returned.
 *  - Open loop: one thread with one non-blocking connection sends on
 *    a fixed schedule at kOpenRate and matches replies in FIFO order.
 *    Latency runs from each request's intended send time, so a stall
 *    is charged to every request it delays.
 *
 * At most three threads run in a wire phase: the two closed-loop
 * clients (or the one open-loop client) and the net worker.
 */

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "Kv.h"
#include "robust/Errors.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespClient.h"
#include "serve/net/Server.h"

namespace perfbench
{

using namespace csr;
using namespace csr::serve;
using namespace csr::serve::net;

namespace
{

/** Requests in flight per closed-loop connection. */
constexpr std::size_t kWindow = 16;
/** Offered rate of the open loop: well under the closed loop's
 *  capacity (over 100k ops/s on a 4-core machine). */
constexpr double kOpenRate = 20'000.0;
/** Share of the run the open loop gets (at least a second). */
constexpr double kOpenShare = 0.3;

/** A NetServer with one net worker over a fresh service, and the ids
 *  of the threads it started. */
class Server
{
  public:
    explicit Server(std::uint64_t seed)
        : backend_(kvBackendConfig(seed)),
          service_(kvServeConfig(), backend_),
          server_(service_, config())
    {
        const std::vector<pid_t> before = listThreads();
        server_.start();
        for (pid_t tid : listThreads())
            if (!std::binary_search(before.begin(), before.end(), tid))
                threads_.push_back(tid);
    }

    std::uint16_t port() const { return server_.port(); }
    const std::vector<pid_t> &threads() const { return threads_; }
    void stop() { server_.stop(); }

  private:
    static NetServerConfig
    config()
    {
        NetServerConfig c;
        c.host = "127.0.0.1";
        c.port = 0;
        c.workers = 1;
        return c;
    }

    SyntheticBackend backend_;
    CacheService service_;
    NetServer server_;
    std::vector<pid_t> threads_;
};

std::vector<std::string>
command(const KvOp &op, std::uint64_t seed)
{
    const std::string key = std::to_string(op.key);
    switch (op.verb) {
      case KvVerb::Get:
        return {"GET", key};
      case KvVerb::Set:
        return {"SET", key, std::to_string(kvSetValue(seed, op.key))};
      case KvVerb::Del:
        break;
    }
    return {"DEL", key};
}

/** Reply problems of one connection or loop. */
struct ReplyChecks
{
    std::uint64_t errors = 0;     ///< -ERR
    std::uint64_t busy = 0;       ///< -BUSY (shed)
    std::uint64_t mismatches = 0; ///< wrong reply type for the verb
    std::uint64_t badValues = 0;  ///< GET value differs from in-process

    std::uint64_t
    total() const
    {
        return errors + busy + mismatches + badValues;
    }

    ReplyChecks &
    operator+=(const ReplyChecks &o)
    {
        errors += o.errors;
        busy += o.busy;
        mismatches += o.mismatches;
        badValues += o.badValues;
        return *this;
    }

    /** Check one reply; @p expect_value is null when not compared. */
    void
    check(char type, std::string_view text, KvVerb verb,
          const std::uint64_t *expect_value)
    {
        if (type == '-') {
            ++(text.rfind("BUSY", 0) == 0 ? busy : errors);
            return;
        }
        const bool ok = verb == KvVerb::Set   ? type == '+'
                        : verb == KvVerb::Del ? type == ':'
                                              : type == '$';
        if (!ok) {
            ++mismatches;
            return;
        }
        if (expect_value &&
            std::to_string(*expect_value) != text)
            ++badValues;
    }
};

struct WirePass
{
    ServeTotals totals;
    std::uint64_t ops = 0;
    double sec = 0.0;
    CpuUse server;
    CpuUse client;
    Samples rttUs;
    ReplyChecks checks;
    std::vector<std::string> failures;
};

struct ConnOut
{
    CpuUse cpu;
    Samples rttUs;
    ReplyChecks checks;
    std::string failure;
};

void
runConnection(std::uint16_t port, const KvStream &stream, unsigned c,
              std::uint64_t seed,
              const std::vector<std::uint64_t> &expect_values,
              bool traced, SpanRecorder &spans, ConnOut &out)
{
    const CpuProbe cpu({currentTid()});
    try {
        Span span(spans, "net.client");
        RespClient client("127.0.0.1", port, 30.0);
        const std::vector<std::uint32_t> &part = stream.parts[c];
        double window_sec = 0.0;
        for (std::size_t i = 0; i < part.size(); i += kWindow) {
            const std::size_t n = std::min(kWindow, part.size() - i);
            const auto begin = traced ? Clock::now() : Clock::time_point{};
            for (std::size_t j = 0; j < n; ++j)
                client.send(command(stream.ops[part[i + j]], seed));
            client.flush();
            const auto sent = Clock::now();
            for (std::size_t j = 0; j < n; ++j) {
                const std::uint32_t idx = part[i + j];
                const RespClient::Reply reply = client.readReply();
                if (traced) {
                    const auto now = Clock::now();
                    out.rttUs.add(secondsBetween(sent, now) * 1e6);
                    if ((i + j) % SpanRecorder::kKeepEvery == 0)
                        spans.keepCall("net.request", sent, now);
                    if (j + 1 == n)
                        window_sec += secondsBetween(begin, now);
                }
                const KvVerb verb = stream.ops[idx].verb;
                out.checks.check(reply.type, reply.text, verb,
                                 verb == KvVerb::Get ? &expect_values[idx]
                                                     : nullptr);
            }
        }
        spans.addCalls("net.window", window_sec);
    } catch (const std::exception &e) {
        out.failure = "connection " + std::to_string(c) + ": " + e.what();
    }
    out.cpu = cpu.diff();
}

WirePass
runWirePass(const KvStream &stream, std::uint64_t seed,
            const std::vector<std::uint64_t> &expect_values,
            SpanRecorder &spans)
{
    Span span(spans, "wire.pass");
    WirePass pass;
    Server server(seed);
    const CpuProbe server_cpu(server.threads());
    std::array<ConnOut, kKvThreads> outs;
    const bool traced = spans.enabled();
    const auto t0 = Clock::now();
    {
        std::thread other(runConnection, server.port(), std::cref(stream),
                          1u, seed, std::cref(expect_values), traced,
                          std::ref(spans), std::ref(outs[1]));
        runConnection(server.port(), stream, 0, seed, expect_values,
                      traced, spans, outs[0]);
        other.join();
    }
    pass.sec = secondsBetween(t0, Clock::now());
    pass.server = server_cpu.diff();
    pass.ops = stream.ops.size();
    for (const ConnOut &o : outs) {
        pass.client += o.cpu;
        pass.rttUs.append(o.rttUs);
        pass.checks += o.checks;
        if (!o.failure.empty())
            pass.failures.push_back(o.failure);
    }
    try {
        RespClient info("127.0.0.1", server.port(), 30.0);
        const RespClient::Reply reply = info.roundTrip({"INFO"});
        if (reply.type != '$')
            throw NetError("INFO did not return a bulk reply");
        pass.totals = parseInfoTotals(reply.text);
    } catch (const std::exception &e) {
        pass.failures.push_back(std::string("INFO: ") + e.what());
    }
    server.stop();
    return pass;
}

/** Open-loop results. */
struct OpenLoop
{
    std::uint64_t sent = 0;
    Samples latencyUs;  ///< from intended send time to reply
    Samples latenessUs; ///< send time minus intended send time
    ReplyChecks checks;
    std::string failure;
};

/** Append one RESP multibulk command. */
void
encode(std::string &out, const std::vector<std::string> &argv)
{
    out += '*';
    out += std::to_string(argv.size());
    out += "\r\n";
    for (const std::string &a : argv) {
        out += '$';
        out += std::to_string(a.size());
        out += "\r\n";
        out += a;
        out += "\r\n";
    }
}

/**
 * Parse one reply at @p pos of @p buf.  @return false when the reply
 * is not complete yet.  @throws std::runtime_error on a reply type the
 * server never sends.
 */
bool
parseReply(const std::string &buf, std::size_t &pos, char &type,
           std::string_view &text)
{
    const std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos)
        return false;
    type = buf[pos];
    if (type == '+' || type == '-' || type == ':') {
        text = std::string_view(buf).substr(pos + 1, eol - pos - 1);
        pos = eol + 2;
        return true;
    }
    if (type != '$')
        throw std::runtime_error("unexpected reply type");
    const long len = std::stol(buf.substr(pos + 1, eol - pos - 1));
    if (len < 0) {
        text = {};
        pos = eol + 2;
        return true;
    }
    const std::size_t end = eol + 2 + static_cast<std::size_t>(len);
    if (buf.size() < end + 2)
        return false;
    text = std::string_view(buf).substr(eol + 2,
                                        static_cast<std::size_t>(len));
    pos = end + 2;
    return true;
}

ScopedFd
connectNonBlocking(std::uint16_t port)
{
    ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (fd.get() < 0)
        throw NetError(std::string("socket: ") + std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd.get(), reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0)
        throw NetError(std::string("connect: ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setNonBlocking(fd.get());
    return fd;
}

OpenLoop
runOpenLoop(const KvStream &stream, std::uint64_t seed, double seconds)
{
    OpenLoop out;
    Server server(seed);
    // Wake on schedule: the default 50 us timer slack would add up to
    // a whole send interval of lateness to every sleep.
    const int slack = ::prctl(PR_GET_TIMERSLACK);
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const auto total = static_cast<std::uint64_t>(kOpenRate * seconds);
    out.latencyUs.reserve(total);
    out.latenessUs.reserve(total);
    try {
        ScopedFd fd = connectNonBlocking(server.port());
        std::string send_buf, recv_buf;
        std::size_t send_pos = 0, recv_pos = 0;
        struct Pending
        {
            Clock::time_point intended;
            KvVerb verb;
        };
        std::deque<Pending> fifo;
        const auto interval = std::chrono::duration<double>(1.0 / kOpenRate);
        const auto start = Clock::now();
        const auto intended = [&](std::uint64_t i) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               interval * static_cast<double>(i));
        };
        auto last_progress = start;
        char chunk[65536];
        while (out.sent < total || !fifo.empty()) {
            auto now = Clock::now();
            while (out.sent < total && intended(out.sent) <= now) {
                const KvOp &op = stream.ops[out.sent % stream.ops.size()];
                encode(send_buf, command(op, seed));
                if (fifo.empty())
                    last_progress = now; // the reply clock starts here
                fifo.push_back({intended(out.sent), op.verb});
                out.latenessUs.add(
                    secondsBetween(intended(out.sent), now) * 1e6);
                ++out.sent;
            }
            if (send_pos < send_buf.size()) {
                const ssize_t n =
                    ::send(fd.get(), send_buf.data() + send_pos,
                           send_buf.size() - send_pos, MSG_NOSIGNAL);
                if (n > 0) {
                    send_pos += static_cast<std::size_t>(n);
                    if (send_pos == send_buf.size()) {
                        send_buf.clear();
                        send_pos = 0;
                    }
                } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
                    throw NetError(std::string("send: ") +
                                   std::strerror(errno));
                }
            }
            const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
            if (n > 0) {
                now = Clock::now();
                last_progress = now;
                recv_buf.append(chunk, static_cast<std::size_t>(n));
                char type = 0;
                std::string_view text;
                while (!fifo.empty() &&
                       parseReply(recv_buf, recv_pos, type, text)) {
                    out.latencyUs.add(
                        secondsBetween(fifo.front().intended, now) * 1e6);
                    out.checks.check(type, text, fifo.front().verb, nullptr);
                    fifo.pop_front();
                }
                recv_buf.erase(0, recv_pos);
                recv_pos = 0;
                continue;
            }
            if (n == 0)
                throw NetError("server closed the connection");
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                throw NetError(std::string("recv: ") + std::strerror(errno));
            if (secondsBetween(last_progress, Clock::now()) > 10.0 &&
                !fifo.empty())
                throw TimeoutError("open loop: no reply for 10 s");
            // Sleep until the next send is due or a reply arrives.
            pollfd p{fd.get(),
                     static_cast<short>(POLLIN | (send_buf.empty() ? 0 : POLLOUT)),
                     0};
            timespec ts{0, 1'000'000};
            if (out.sent < total) {
                const double wait =
                    secondsBetween(Clock::now(), intended(out.sent));
                if (wait <= 0.0)
                    continue;
                ts.tv_nsec = std::min<long>(
                    static_cast<long>(wait * 1e9), 999'999'999);
            }
            ::ppoll(&p, 1, &ts, nullptr);
        }
    } catch (const std::exception &e) {
        out.failure = std::string("open loop: ") + e.what();
    }
    ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(slack));
    server.stop();
    return out;
}

struct Rates
{
    std::optional<double> wireOpsPerSec;
    std::optional<double> serveOpsPerSec;
    std::optional<double> serverCpuUsPerOp;
    std::optional<double> serverUserUsPerOp;
    std::optional<double> serverSysUsPerOp;
    std::optional<double> serverVcswPerOp;
    std::optional<double> clientVcswPerOp;
    std::optional<double> serveCpuNsPerOp;
};

struct Measured
{
    std::vector<WirePass> wire;
    std::vector<ServePass> serve;
    Rates rates;
};

/**
 * Alternate in-process and closed-loop wire passes for @p seconds
 * (at least one of each).  The first in-process pass is the
 * reference the wire must reproduce.
 */
Measured
measure(const KvStream &stream, std::uint64_t seed, double seconds,
        const ServePass *reference, SpanRecorder &spans, Outcome &out)
{
    Measured m;
    SpanRecorder off(false);
    const auto start = Clock::now();
    do {
        out.attempted += stream.ops.size();
        m.serve.push_back(runServePass(stream, seed, off));
        const ServePass &ref = reference ? *reference : m.serve.front();
        const ServePass &s = m.serve.back();
        out.failed += s.errors;
        if (serveCounters(s.totals) != serveCounters(ref.totals))
            out.fail("in-process totals differ from the first pass");
        if (&s != &ref && s.getValues != ref.getValues)
            out.fail("in-process GET values differ from the first pass");

        out.attempted += stream.ops.size();
        WirePass w = runWirePass(stream, seed, ref.getValues, spans);
        for (const std::string &f : w.failures)
            out.fail(f);
        out.failed += w.checks.total();
        if (w.checks.total())
            out.problems.push_back(
                "wire replies: " + std::to_string(w.checks.errors) +
                " -ERR, " + std::to_string(w.checks.busy) + " -BUSY, " +
                std::to_string(w.checks.mismatches) + " wrong types, " +
                std::to_string(w.checks.badValues) + " wrong GET values");
        if (serveCounters(w.totals) != serveCounters(ref.totals))
            out.fail("wire totals differ from in-process: wire {" +
                     serveCounters(w.totals) + "} in-process {" +
                     serveCounters(ref.totals) + "}");
        m.wire.push_back(std::move(w));
        if (m.serve.size() > 1) // keeps peak RSS round-count-free
            std::vector<std::uint64_t>().swap(m.serve.back().getValues);
    } while (secondsBetween(start, Clock::now()) < seconds);

    // Total work / total time (see paper-sim's rates()).
    double wire_ops = 0, wire_sec = 0, serve_ops = 0, serve_sec = 0;
    CpuUse server, client, serve_cpu;
    for (const WirePass &w : m.wire) {
        wire_ops += static_cast<double>(w.ops);
        wire_sec += w.sec;
        server += w.server;
        client += w.client;
    }
    for (const ServePass &s : m.serve) {
        serve_ops += static_cast<double>(s.timedOps);
        serve_sec += s.timedSec;
        serve_cpu += s.cpu;
    }
    m.rates = {ratio(wire_ops, wire_sec),
               ratio(serve_ops, serve_sec),
               ratio(server.cpuNs / 1e3, wire_ops),
               ratio(server.userNs / 1e3, wire_ops),
               ratio(server.sysNs / 1e3, wire_ops),
               ratio(server.vcsw, wire_ops),
               ratio(client.vcsw, wire_ops),
               ratio(serve_cpu.cpuNs, serve_ops)};
    return m;
}

} // namespace

void
runKvWire(const RunArgs &args, SpanRecorder &spans, Outcome &out)
{
    Report &rep = out.report;
    const std::string path = args.workDir + "/kv-wire.csrt";
    std::vector<double> setup_sec;
    KvStream stream;
    for (int i = 0; i < (args.countersOnly ? 1 : kSetupRepeats); ++i) {
        const auto t0 = Clock::now();
        stream = KvStream{}; // one stream alive at a time
        stream = makeKvStream(path, args.seed);
        setup_sec.push_back(secondsBetween(t0, Clock::now()));
    }

    SpanRecorder off(false);
    const double run_sec = args.trace ? args.seconds / 2 : args.seconds;
    const double open_sec = std::max(1.0, run_sec * kOpenShare);
    const Measured m = measure(stream, args.seed,
                               args.countersOnly ? 0.0 : run_sec - open_sec,
                               nullptr, off, out);
    out.counters = "serve " + serveCounters(m.serve.front().totals) + "\n";
    if (args.countersOnly)
        return;

    const OpenLoop open = runOpenLoop(stream, args.seed, open_sec);
    out.attempted += open.sent;
    if (!open.failure.empty())
        out.fail(open.failure);
    out.failed += open.checks.total();
    if (open.checks.total())
        out.problems.push_back("open-loop replies: " +
                               std::to_string(open.checks.total()) +
                               " errors or wrong types");

    const Rates &e2e = m.rates;
    rep.set("setup_s", "s", median(setup_sec));
    rep.set("wire_ops_per_s", "1/s", e2e.wireOpsPerSec);
    rep.percentile("wire_p50_us", "us", open.latencyUs, 0.50);
    rep.percentile("wire_p99_us", "us", open.latencyUs, 0.99);
    rep.set("wire_server_cpu_us_per_op", "us", e2e.serverCpuUsPerOp);
    rep.set("serve_ops_per_s", "1/s", e2e.serveOpsPerSec);
    rep.set("ops_per_s", "1/s", e2e.wireOpsPerSec);
    rep.set("aux_ops_per_s", "1/s", e2e.serveOpsPerSec);
    rep.set("cpu_us_per_op", "us", e2e.serverCpuUsPerOp);

    if (!args.trace)
        return;

    const Measured traced = measure(stream, args.seed, args.seconds / 2,
                                    &m.serve.front(), spans, out);
    Samples rtt;
    for (const WirePass &w : traced.wire)
        rtt.append(w.rttUs);
    rep.percentile("net.rtt_us.p50", "us", rtt, 0.50);
    rep.percentile("net.rtt_us.p99", "us", rtt, 0.99);
    rep.set("net.server_user_us_per_op", "us", e2e.serverUserUsPerOp);
    rep.set("net.server_sys_us_per_op", "us", e2e.serverSysUsPerOp);
    rep.set("net.server_vcsw_per_op", "count", e2e.serverVcswPerOp);
    rep.set("net.client_vcsw_per_op", "count", e2e.clientVcswPerOp);
    rep.percentile("net.gen_lateness_us.p99", "us", open.latenessUs, 0.99);
    if (e2e.serverCpuUsPerOp && e2e.serveCpuNsPerOp)
        rep.set("net.overhead_us_per_op", "us",
                *e2e.serverCpuUsPerOp - *e2e.serveCpuNsPerOp / 1e3);
    rep.set("self_s.net.client", "s", spans.selfSeconds("net.client"));
    rep.set("self_s.wire.pass", "s", spans.selfSeconds("wire.pass"));
    if (e2e.wireOpsPerSec && traced.rates.wireOpsPerSec)
        rep.set("trace.overhead_frac", "ratio",
                1.0 - *traced.rates.wireOpsPerSec / *e2e.wireOpsPerSec);
}

} // namespace perfbench
