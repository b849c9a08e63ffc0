/**
 * @file
 * csr::serve::net tests: the RESP parser against hostile and split
 * input (table-driven, no sockets), the event-loop post/wake
 * machinery, the async Backend/CacheService surfaces, the
 * waiter-side inflight timeout, and a real loopback server driven
 * by RespClient and by the client-mode load harness.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"
#include "serve/net/ClientLoad.h"
#include "serve/net/EventLoop.h"
#include "serve/net/NetCommon.h"
#include "serve/net/RespClient.h"
#include "serve/net/RespParser.h"
#include "serve/net/Server.h"
#include "util/Random.h"

using namespace csr;
using namespace csr::serve;
using namespace csr::serve::net;

namespace
{

/** Feed the whole input at once and drain every command. */
std::vector<RespCommand>
parseAll(RespParser &parser, const std::string &input,
         RespParseStatus &final_status)
{
    parser.feed(input.data(), input.size());
    std::vector<RespCommand> commands;
    RespCommand cmd;
    while (true) {
        final_status = parser.next(cmd);
        if (final_status != RespParseStatus::Command)
            return commands;
        commands.push_back(cmd);
    }
}

ServeConfig
tinyServeConfig()
{
    ServeConfig config;
    config.shards = 4;
    config.shardBytes = 16 * 1024;
    config.policy = PolicyKind::Acl;
    return config;
}

} // namespace

// ---------------------------------------------------------------------------
// RespParser -- table-driven protocol cases
// ---------------------------------------------------------------------------

TEST(NetRespParser, DecodesWellFormedAndRejectsMalformed)
{
    struct Case
    {
        const char *name;
        std::string input;
        // Expected commands as flat argv lists; empty = none.
        std::vector<std::vector<std::string>> commands;
        bool protocolError;
    };

    const std::vector<Case> cases = {
        {"simple multibulk",
         "*2\r\n$3\r\nGET\r\n$2\r\n17\r\n",
         {{"GET", "17"}},
         false},
        {"pipelined multibulk",
         "*1\r\n$4\r\nPING\r\n*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv"
         "\r\n",
         {{"PING"}, {"SET", "k", "v"}},
         false},
        {"empty bulk argument",
         "*2\r\n$3\r\nGET\r\n$0\r\n\r\n",
         {{"GET", ""}},
         false},
        {"binary-safe bulk",
         std::string("*2\r\n$3\r\nGET\r\n$4\r\na\r\nb\r\n", 23),
         {{"GET", std::string("a\r\nb", 4)}},
         false},
        {"inline command",
         "PING\r\n",
         {{"PING"}},
         false},
        {"inline with arguments and padding",
         "  SET   key\t value \r\n",
         {{"SET", "key", "value"}},
         false},
        {"blank inline lines are skipped",
         "\r\n\r\nPING\r\n",
         {{"PING"}},
         false},
        {"mixed inline and multibulk",
         "PING\r\n*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n",
         {{"PING"}, {"DEL", "k"}},
         false},
        {"zero-element array",
         "*0\r\n",
         {},
         true},
        {"negative array count",
         "*-1\r\n",
         {},
         true},
        {"non-numeric array count",
         "*x\r\n",
         {},
         true},
        {"array count overflow",
         "*99999999999999999999999\r\n",
         {},
         true},
        {"wrong element prefix",
         "*1\r\n+PING\r\n",
         {},
         true},
        {"non-numeric bulk length",
         "*1\r\n$abc\r\n",
         {},
         true},
        {"negative bulk length",
         "*1\r\n$-1\r\n",
         {},
         true},
        {"bulk payload missing CRLF",
         "*1\r\n$4\r\nPINGxx",
         {},
         true},
        {"good then garbage still yields the good one",
         "*1\r\n$4\r\nPING\r\n*1\r\n$oops\r\n",
         {{"PING"}},
         true},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        RespParser parser;
        RespParseStatus status = RespParseStatus::NeedMore;
        const auto commands = parseAll(parser, c.input, status);
        ASSERT_EQ(commands.size(), c.commands.size());
        for (std::size_t i = 0; i < commands.size(); ++i)
            EXPECT_EQ(commands[i].argv, c.commands[i]);
        if (c.protocolError) {
            EXPECT_EQ(status, RespParseStatus::ProtocolError);
            EXPECT_FALSE(parser.error().empty());
            // Latched: more input cannot resurrect the stream.
            parser.feed("PING\r\n", 6);
            RespCommand cmd;
            EXPECT_EQ(parser.next(cmd),
                      RespParseStatus::ProtocolError);
        } else {
            EXPECT_EQ(status, RespParseStatus::NeedMore);
        }
    }
}

TEST(NetRespParser, ReassemblesFramesSplitAtEveryByte)
{
    const std::string frame =
        "*3\r\n$3\r\nSET\r\n$6\r\nkey:42\r\n$5\r\n12345\r\n";
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        RespParser parser;
        RespCommand cmd;
        parser.feed(frame.data(), cut);
        // Nothing complete yet unless the cut is at the very end.
        EXPECT_EQ(parser.next(cmd), RespParseStatus::NeedMore)
            << "cut at " << cut;
        parser.feed(frame.data() + cut, frame.size() - cut);
        ASSERT_EQ(parser.next(cmd), RespParseStatus::Command)
            << "cut at " << cut;
        const std::vector<std::string> expect{"SET", "key:42",
                                              "12345"};
        EXPECT_EQ(cmd.argv, expect);
        EXPECT_EQ(parser.buffered(), 0u);
    }
}

TEST(NetRespParser, EnforcesEveryConfiguredLimit)
{
    RespLimits limits;
    limits.maxBulkBytes = 8;
    limits.maxArrayElements = 3;
    limits.maxInlineBytes = 16;

    {
        RespParser parser(limits);
        RespCommand cmd;
        const std::string big = "*1\r\n$9\r\n";
        parser.feed(big.data(), big.size());
        EXPECT_EQ(parser.next(cmd), RespParseStatus::ProtocolError);
        EXPECT_NE(parser.error().find("exceeds limit"),
                  std::string::npos);
    }
    {
        RespParser parser(limits);
        RespCommand cmd;
        const std::string wide = "*4\r\n";
        parser.feed(wide.data(), wide.size());
        EXPECT_EQ(parser.next(cmd), RespParseStatus::ProtocolError);
    }
    {
        RespParser parser(limits);
        RespCommand cmd;
        const std::string runaway(17, 'a'); // no CRLF in sight
        parser.feed(runaway.data(), runaway.size());
        EXPECT_EQ(parser.next(cmd), RespParseStatus::ProtocolError);
    }
    {
        // At the limits, everything still parses.
        RespParser parser(limits);
        RespCommand cmd;
        const std::string ok =
            "*3\r\n$8\r\nabcdefgh\r\n$1\r\nx\r\n$0\r\n\r\n";
        parser.feed(ok.data(), ok.size());
        ASSERT_EQ(parser.next(cmd), RespParseStatus::Command);
        EXPECT_EQ(cmd.argv[0], "abcdefgh");
    }
}

// ---------------------------------------------------------------------------
// NetCommon -- address grammar
// ---------------------------------------------------------------------------

TEST(NetCommonTest, ParsesAndRejectsHostPortSpecs)
{
    const auto [h1, p1] = parseHostPort("127.0.0.1:7411");
    EXPECT_EQ(h1, "127.0.0.1");
    EXPECT_EQ(p1, 7411);
    const auto [h2, p2] = parseHostPort(":0");
    EXPECT_EQ(h2, "127.0.0.1");
    EXPECT_EQ(p2, 0);

    EXPECT_THROW(parseHostPort("no-port-here"), ConfigError);
    EXPECT_THROW(parseHostPort("127.0.0.1:"), ConfigError);
    EXPECT_THROW(parseHostPort("127.0.0.1:99999"), ConfigError);
    EXPECT_THROW(parseHostPort("127.0.0.1:abc"), ConfigError);
    EXPECT_THROW(parseHostPort("not.a.host:80"), ConfigError);
}

// ---------------------------------------------------------------------------
// EventLoop -- post/wake machinery
// ---------------------------------------------------------------------------

TEST(NetEventLoop, PostedClosuresRunOnTheLoopThread)
{
    EventLoop loop;
    std::thread runner([&loop] { loop.run(); });

    std::atomic<int> ran{0};
    std::atomic<bool> on_loop_thread{false};
    std::mutex mutex;
    std::condition_variable cv;
    for (int i = 0; i < 100; ++i)
        loop.post([&] {
            on_loop_thread.store(loop.inLoopThread());
            if (ran.fetch_add(1) + 1 == 100) {
                std::lock_guard<std::mutex> lock(mutex);
                cv.notify_all();
            }
        });
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return ran.load() == 100; });
    }
    EXPECT_TRUE(on_loop_thread.load());
    EXPECT_FALSE(loop.inLoopThread());
    loop.stop();
    runner.join();
}

TEST(NetEventLoop, BurstOfPostsCoalescesItsWakes)
{
    EventLoop loop;
    std::thread runner([&loop] { loop.run(); });

    // Park the loop inside a posted closure so the whole burst lands
    // while a wake is pending: only the first post may write the
    // eventfd.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<bool> parked{false};
    loop.post([&parked, gate] {
        parked.store(true);
        gate.wait();
    });
    while (!parked.load())
        std::this_thread::yield();

    constexpr int kPosts = 1000;
    std::atomic<int> ran{0};
    std::atomic<int> off_loop{0};
    std::thread poster([&] {
        for (int i = 0; i < kPosts; ++i)
            loop.post([&] {
                if (!loop.inLoopThread())
                    off_loop.fetch_add(1);
                ran.fetch_add(1);
            });
    });
    poster.join();
    release.set_value();

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ran.load() < kPosts &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(ran.load(), kPosts);
    EXPECT_EQ(off_loop.load(), 0);
    EXPECT_LT(loop.syscalls().wakeWrites.load(),
              static_cast<std::uint64_t>(kPosts));
    loop.stop();
    runner.join();
}

// ---------------------------------------------------------------------------
// Async Backend + CacheService surfaces
// ---------------------------------------------------------------------------

namespace
{

/** Overrides only the sync fetch: exercises the Backend base-class
 *  fetchAsync adapter, including its exception path. */
class SyncOnlyBackend : public Backend
{
  public:
    BackendResult
    fetch(Addr key, std::uint64_t) override
    {
        if (failNext.exchange(false))
            throw InjectedFaultError("sync backend failure");
        BackendResult result;
        result.value = hashMix64(key);
        result.latencyNs = 100.0;
        return result;
    }

    BackendResult
    store(Addr, std::uint64_t value, std::uint64_t) override
    {
        BackendResult result;
        result.value = value;
        result.latencyNs = 100.0;
        return result;
    }

    std::string describe() const override { return "sync-only"; }

    std::atomic<bool> failNext{false};
};

} // namespace

TEST(NetAsyncBackend, DefaultAdapterCompletesInline)
{
    SyncOnlyBackend backend;
    bool completed = false;
    backend.fetchAsync(17, 0,
                       [&](const BackendResult &result,
                           std::exception_ptr error) {
                           EXPECT_EQ(error, nullptr);
                           EXPECT_EQ(result.value, hashMix64(17));
                           completed = true;
                       });
    EXPECT_TRUE(completed);

    backend.failNext.store(true);
    bool failed = false;
    backend.fetchAsync(
        17, 0,
        [&](const BackendResult &, std::exception_ptr error) {
            ASSERT_NE(error, nullptr);
            EXPECT_THROW(std::rethrow_exception(error),
                         InjectedFaultError);
            failed = true;
        });
    EXPECT_TRUE(failed);
}

TEST(NetAsyncService, GetAsyncMatchesGetOpByOp)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 11;
    SyntheticBackend sync_backend(backend_config);
    SyntheticBackend async_backend(backend_config);

    CacheService sync_service(tinyServeConfig(), sync_backend);
    CacheService async_service(tinyServeConfig(), async_backend);

    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        const Addr key = rng.next() % 512;
        const ServeOpResult expect = sync_service.get(key);
        ServeOpResult got;
        bool done = false;
        async_service.getAsync(key,
                               [&](const ServeOpResult &result,
                                   std::exception_ptr error) {
                                   ASSERT_EQ(error, nullptr);
                                   got = result;
                                   done = true;
                               });
        // The synthetic backend completes inline, so the callback
        // has already run.
        ASSERT_TRUE(done);
        EXPECT_EQ(got.hit, expect.hit) << "op " << i;
        EXPECT_EQ(got.value, expect.value) << "op " << i;
        EXPECT_EQ(got.backendNs, expect.backendNs) << "op " << i;
    }

    const ServeTotals a = sync_service.totals();
    const ServeTotals b = async_service.totals();
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.missCostNs, b.missCostNs);
    EXPECT_EQ(a.evictions, b.evictions);
}

namespace
{

/** Blocks fetches until release() (test_serve_concurrency's gate). */
class GateBackend : public Backend
{
  public:
    BackendResult
    fetch(Addr key, std::uint64_t) override
    {
        fetches.fetch_add(1, std::memory_order_relaxed);
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return released_; });
        BackendResult result;
        result.value = hashMix64(key);
        result.latencyNs = 5000.0;
        return result;
    }

    BackendResult
    store(Addr, std::uint64_t value, std::uint64_t) override
    {
        BackendResult result;
        result.value = value;
        result.latencyNs = 1000.0;
        return result;
    }

    std::string describe() const override { return "gate"; }

    void
    release()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            released_ = true;
        }
        cv_.notify_all();
    }

    std::atomic<std::uint64_t> fetches{0};

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool released_ = false;
};

} // namespace

TEST(ServeInflightTimeout, WaiterTimesOutWithTypedErrorNotForever)
{
    GateBackend backend;
    ServeConfig config = tinyServeConfig();
    config.shards = 1;
    config.inflightWaitMs = 50.0; // waiters give up fast
    CacheService service(config, backend);

    constexpr Addr kKey = 99;
    std::thread leader([&] {
        // Blocks inside the gated fetch until release().
        const ServeOpResult result = service.get(kKey);
        EXPECT_EQ(result.value, hashMix64(kKey));
    });
    while (backend.fetches.load() == 0)
        std::this_thread::yield();

    // A coalesced waiter must come back with TimeoutError, not park
    // forever on the wedged leader.
    EXPECT_THROW(service.get(kKey), TimeoutError);

    backend.release();
    leader.join();

    // The flight completed after the timeout; the key now hits.
    const ServeOpResult after = service.get(kKey);
    EXPECT_TRUE(after.hit);
    EXPECT_EQ(backend.fetches.load(), 1u);
}

TEST(ServeInflightTimeout, ConfigRejectsNegativeWait)
{
    ServeConfig config = tinyServeConfig();
    config.inflightWaitMs = -1.0;
    EXPECT_THROW(config.validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// Loopback end-to-end
// ---------------------------------------------------------------------------

TEST(NetServeLoopback, CommandsRoundTripAgainstARealServer)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 5;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);

    NetServerConfig net_config; // port 0: ephemeral
    net_config.workers = 2;
    NetServer server(service, net_config);
    server.start();
    ASSERT_NE(server.port(), 0);

    RespClient client("127.0.0.1", server.port(), 10.0);

    // PING both ways.
    EXPECT_EQ(client.roundTrip({"PING"}).text, "PONG");
    EXPECT_EQ(client.roundTrip({"PING", "hello"}).text, "hello");

    // A GET is read-through: the decimal key's value is the
    // deterministic synthetic payload.
    const auto got = client.roundTrip({"GET", "12345"});
    EXPECT_EQ(got.type, '$');
    EXPECT_EQ(got.text, std::to_string(backend.valueOf(12345)));

    // SET then GET returns the stored value; DEL evicts it and the
    // next GET refetches the backend payload.
    EXPECT_EQ(client.roundTrip({"SET", "777", "424242"}).type, '+');
    EXPECT_EQ(client.roundTrip({"GET", "777"}).text, "424242");
    EXPECT_EQ(client.roundTrip({"DEL", "777"}).integer, 1);
    EXPECT_EQ(client.roundTrip({"DEL", "777"}).integer, 0);
    EXPECT_EQ(client.roundTrip({"GET", "777"}).text,
              std::to_string(backend.valueOf(777)));

    // Non-numeric keys hash to a stable Addr: SET/GET agree.
    EXPECT_EQ(client.roundTrip({"SET", "user:alice", "7"}).type, '+');
    EXPECT_EQ(client.roundTrip({"GET", "user:alice"}).text, "7");

    // Errors: arity, unknown verbs, non-numeric values.
    EXPECT_TRUE(client.roundTrip({"GET"}).isError());
    EXPECT_TRUE(client.roundTrip({"FLUSHALL"}).isError());
    EXPECT_TRUE(client.roundTrip({"SET", "1", "not-a-number"})
                    .isError());

    // Pipelining: many GETs in one write, replies in order.
    constexpr int kPipelined = 200;
    for (int i = 0; i < kPipelined; ++i)
        client.send({"GET", std::to_string(1000 + i)});
    client.flush();
    for (int i = 0; i < kPipelined; ++i) {
        const auto reply = client.readReply();
        ASSERT_EQ(reply.type, '$') << "reply " << i;
        // Every one of these keys was cold or warmed by this loop;
        // either way the value is the canonical payload.
        EXPECT_EQ(reply.text,
                  std::to_string(backend.valueOf(
                      static_cast<Addr>(1000 + i))))
            << "reply " << i;
    }

    // INFO parses back into the service's own totals.
    const auto info = client.roundTrip({"INFO"});
    ASSERT_EQ(info.type, '$');
    const ServeTotals parsed = parseInfoTotals(info.text);
    const ServeTotals live = service.totals();
    EXPECT_EQ(parsed.gets, live.gets);
    EXPECT_EQ(parsed.hits, live.hits);
    EXPECT_EQ(parsed.misses, live.misses);
    EXPECT_EQ(parsed.stores, live.stores);
    EXPECT_EQ(parsed.missCostNs, live.missCostNs);
    EXPECT_GT(parsed.gets, 0u);

    server.stop();
    const NetStats stats = server.stats();
    EXPECT_GE(stats.connectionsAccepted, 1u);
    EXPECT_GT(stats.cmdGet, 0u);
    EXPECT_GT(stats.cmdSet, 0u);
    EXPECT_EQ(stats.protocolErrors, 0u);
    EXPECT_GT(stats.bytesIn, 0u);
    EXPECT_GT(stats.bytesOut, 0u);
    EXPECT_GT(stats.wireLatencyNs.totalCount(), 0u);
}

namespace
{

/** A blocking loopback socket to @p port (-1 on failure). */
int
connectRaw(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/** End of the complete reply starting at @p pos of @p buf, or npos.
 *  Knows the reply types NetServer sends: + - : and $. */
std::size_t
replyEnd(const std::string &buf, std::size_t pos)
{
    const std::size_t eol = buf.find("\r\n", pos);
    if (eol == std::string::npos)
        return std::string::npos;
    if (buf[pos] != '$')
        return eol + 2;
    const long long len = std::stoll(buf.substr(pos + 1, eol - pos - 1));
    if (len < 0)
        return eol + 2;
    const std::size_t end = eol + 2 + static_cast<std::size_t>(len) + 2;
    return end <= buf.size() ? end : std::string::npos;
}

/** Read exactly @p count raw replies off @p fd ("" on EOF/error). */
std::string
readReplies(int fd, std::size_t count)
{
    std::string buf;
    std::size_t pos = 0;
    char chunk[4096];
    while (count > 0) {
        const std::size_t end =
            pos < buf.size() ? replyEnd(buf, pos) : std::string::npos;
        if (end != std::string::npos) {
            pos = end;
            --count;
            continue;
        }
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return "";
        buf.append(chunk, static_cast<std::size_t>(n));
    }
    return buf;
}

/** Write raw bytes to a fresh loopback socket and slurp everything
 *  the server says until it hangs up. */
std::string
rawExchange(std::uint16_t port, const std::string &bytes)
{
    const int fd = connectRaw(port);
    if (fd < 0)
        return "";
    sendAll(fd, bytes);
    std::string reply;
    char chunk[4096];
    while (true) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break; // EOF: the server hung up, as promised
        reply.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

/** Append @p text as a RESP bulk string. */
void
appendBulk(std::string &out, const std::string &text)
{
    out += '$';
    out += std::to_string(text.size());
    out += "\r\n";
    out += text;
    out += "\r\n";
}

std::string
encodeCommand(const std::vector<std::string> &argv)
{
    std::string out = "*";
    out += std::to_string(argv.size());
    out += "\r\n";
    for (const std::string &arg : argv)
        appendBulk(out, arg);
    return out;
}

} // namespace

TEST(NetServeLoopback, PipelinedBatchRepliesMatchOneAtATime)
{
    // 64 GET/SET/DEL commands over a handful of keys, so GETs hit
    // SETs, DELs find keys both resident and gone.
    std::vector<std::string> commands;
    for (int i = 0; i < 64; ++i) {
        const std::string key = std::to_string(100 + i % 7);
        switch (i % 4) {
          case 0:
            commands.push_back(
                encodeCommand({"SET", key, std::to_string(9000 + i)}));
            break;
          case 2:
            commands.push_back(encodeCommand({"DEL", key}));
            break;
          default:
            commands.push_back(encodeCommand({"GET", key}));
        }
    }

    // Each pass gets a fresh service and server, so both see the
    // same state sequence.
    struct Pass
    {
        std::string replies;
        std::uint64_t recvCalls = 0;
        std::uint64_t sendCalls = 0;
    };
    const auto run = [&](bool batched) {
        SyntheticBackendConfig backend_config;
        backend_config.seed = 3;
        SyntheticBackend backend(backend_config);
        CacheService service(tinyServeConfig(), backend);
        NetServer server(service, NetServerConfig{});
        server.start();
        Pass pass;
        const int fd = connectRaw(server.port());
        EXPECT_GE(fd, 0);
        if (fd < 0)
            return pass;
        const NetStats before = server.stats();
        if (batched) {
            std::string all;
            for (const std::string &c : commands)
                all += c;
            EXPECT_TRUE(sendAll(fd, all));
            pass.replies = readReplies(fd, commands.size());
        } else {
            for (const std::string &c : commands) {
                EXPECT_TRUE(sendAll(fd, c));
                pass.replies += readReplies(fd, 1);
            }
        }
        const NetStats after = server.stats();
        pass.recvCalls = after.recvCalls - before.recvCalls;
        pass.sendCalls = after.sendCalls - before.sendCalls;
        ::close(fd);
        server.stop();
        return pass;
    };

    const Pass single = run(false);
    const Pass batch = run(true);
    ASSERT_FALSE(single.replies.empty());
    EXPECT_EQ(batch.replies, single.replies);
    // Every reply of a recv'd window leaves in the turn's one send.
    EXPECT_GT(batch.sendCalls, 0u);
    EXPECT_LE(batch.sendCalls, batch.recvCalls);
    EXPECT_GE(single.sendCalls, commands.size());
}

TEST(NetServeLoopback, WriteWatermarkStillBoundsDeferredReplies)
{
    SyntheticBackendConfig backend_config;
    backend_config.seed = 4;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);
    NetServerConfig net_config;
    net_config.tuning.writeWatermark = 256;
    NetServer server(service, net_config);
    server.start();

    // 2,000 GETs in before a single reply is read: the decode pass
    // must halt at the watermark rather than buffer every reply for
    // the turn's one send.
    constexpr int kGets = 2000;
    std::string all;
    for (int i = 0; i < kGets; ++i)
        all += encodeCommand({"GET", std::to_string(5000 + i)});
    const int fd = connectRaw(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, all));
    const std::string replies = readReplies(fd, kGets);
    ::close(fd);

    std::string expected;
    for (int i = 0; i < kGets; ++i) {
        appendBulk(expected, std::to_string(backend.valueOf(
                                 static_cast<Addr>(5000 + i))));
    }
    EXPECT_EQ(replies, expected);

    server.stop();
    const NetStats stats = server.stats();
    EXPECT_GT(stats.backpressureStalls, 0u);
    EXPECT_EQ(stats.cmdGet, static_cast<std::uint64_t>(kGets));
    // No send carried more than the watermark plus one reply (each
    // under 64 B here): the buffer stayed bounded.
    EXPECT_GE(stats.sendCalls * (net_config.tuning.writeWatermark + 64),
              stats.bytesOut);
}

TEST(NetServeLoopback, ProtocolErrorGetsAReplyThenTheBoot)
{
    SyntheticBackendConfig backend_config;
    SyntheticBackend backend(backend_config);
    CacheService service(tinyServeConfig(), backend);

    NetServerConfig net_config;
    NetServer server(service, net_config);
    server.start();

    // A multibulk with a garbage bulk length: the server must answer
    // -ERR Protocol error and then close the connection (recv above
    // drains to EOF, so getting the reply back proves both halves).
    const std::string reply =
        rawExchange(server.port(), "*1\r\n$oops\r\n");
    EXPECT_EQ(reply.rfind("-ERR Protocol error", 0), 0u) << reply;

    // A healthy connection still works afterwards.
    RespClient client("127.0.0.1", server.port(), 10.0);
    EXPECT_EQ(client.roundTrip({"PING"}).text, "PONG");

    server.stop();
    const NetStats stats = server.stats();
    EXPECT_EQ(stats.protocolErrors, 1u);
}

namespace
{

/** The deterministic ServeTotals fields agree number for number. */
void
expectSameTotals(const ServeTotals &a, const ServeTotals &b)
{
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.storeHits, b.storeHits);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.trackedKeys, b.trackedKeys);
    EXPECT_EQ(a.missCostNs, b.missCostNs);
    EXPECT_EQ(a.storeCostNs, b.storeCostNs);
}

} // namespace

TEST(NetClientLoadTest, WireRunMatchesInProcessTotalsExactly)
{
    // One server, locked hit path (the deterministic reference).
    ServeConfig serve_config = tinyServeConfig();
    SyntheticBackendConfig backend_config;
    backend_config.seed = 7;
    SyntheticBackend backend(backend_config);
    CacheService service(serve_config, backend);

    NetServerConfig net_config;
    net_config.workers = 2;
    NetServer server(service, net_config);
    server.start();

    ClientConfig client_config;
    client_config.host = "127.0.0.1";
    client_config.port = server.port();
    client_config.connections = 3;
    client_config.pipeline = 16;
    client_config.serverShards = serve_config.shards;
    client_config.harness.ops = 20000;
    client_config.harness.seed = 7;
    client_config.harness.mix.numKeys = 4096;

    const ClientResult wire = runClientLoad(client_config);
    server.stop();

    EXPECT_EQ(wire.errorReplies, 0u);
    EXPECT_EQ(wire.typeMismatches, 0u);
    EXPECT_EQ(wire.sentGets + wire.sentSets, 20000u);
    EXPECT_TRUE(wire.consistentWithServer());

    // The same stream against a fresh in-process service: the
    // deterministic totals must agree number for number.
    SyntheticBackend backend2(backend_config);
    CacheService service2(serve_config, backend2);
    HarnessConfig harness = client_config.harness;
    harness.workers = 1;
    const HarnessResult local = runLoad(service2, harness);

    expectSameTotals(wire.harness.totals, local.totals);
}

TEST(NetClientLoadTest, PipelineDepthDoesNotChangeServerTotals)
{
    const ServeConfig serve_config = tinyServeConfig();
    SyntheticBackendConfig backend_config;
    backend_config.seed = 11;

    struct Run
    {
        ServeTotals totals;
        NetStats net;
    };
    const auto run = [&](std::size_t pipeline) {
        SyntheticBackend backend(backend_config);
        CacheService service(serve_config, backend);
        NetServer server(service, NetServerConfig{});
        server.start();
        ClientConfig client_config;
        client_config.port = server.port();
        client_config.connections = 2;
        client_config.pipeline = pipeline;
        client_config.serverShards = serve_config.shards;
        client_config.harness.ops = 6000;
        client_config.harness.seed = 11;
        client_config.harness.mix.numKeys = 2048;
        const ClientResult wire = runClientLoad(client_config);
        server.stop();
        EXPECT_EQ(wire.errorReplies, 0u);
        EXPECT_EQ(wire.typeMismatches, 0u);
        EXPECT_TRUE(wire.consistentWithServer());
        return Run{service.totals(), server.stats()};
    };

    const Run one = run(1);
    const Run deep = run(64);
    expectSameTotals(deep.totals, one.totals);

    // One send per window, not per reply: a pipeline-64 window costs
    // the server about 1/64 of a send per data command.
    const double data_cmds = static_cast<double>(
        deep.net.cmdGet + deep.net.cmdSet + deep.net.cmdDel);
    EXPECT_LE(static_cast<double>(deep.net.sendCalls), 0.15 * data_cmds);
    EXPECT_LE(one.net.sendCalls, one.net.recvCalls);
}

TEST(NetClientLoadTest, ShardPartitionMatchesTheService)
{
    ServeConfig config = tinyServeConfig();
    SyntheticBackendConfig backend_config;
    SyntheticBackend backend(backend_config);
    CacheService service(config, backend);
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const Addr key = rng.next();
        EXPECT_EQ(wireShardOf(key, config.shards),
                  service.shardOf(key));
    }
}

TEST(NetServerConfigTest, ValidatesFlagsAndSpecs)
{
    NetServerConfig config;
    config.workers = 4096;
    EXPECT_THROW(config.validate(), ConfigError);

    ClientConfig client;
    client.port = 0;
    EXPECT_THROW(client.validate(), ConfigError);
    client.port = 1;
    client.connections = 0;
    EXPECT_THROW(client.validate(), ConfigError);
    client.connections = 1;
    client.serverShards = 3; // not a power of two
    EXPECT_THROW(client.validate(), ConfigError);
}
