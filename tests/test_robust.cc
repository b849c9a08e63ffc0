/**
 * @file
 * Tests for the robustness layer: the typed error hierarchy, the
 * JSONL checkpoint substrate under corrupt and truncated input, the
 * sweep checkpoint codec, per-cell fault isolation and retry,
 * kill-and-resume equivalence, hardened trace parsing, the NUMA
 * stall watchdog, and injected sweep-cell faults end to end.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "numa/NumaSystem.h"
#include "robust/CheckpointLog.h"
#include "robust/Errors.h"
#include "robust/NetChaos.h"
#include "sim/SweepCheckpoint.h"
#include "sim/SweepRunner.h"
#include "trace/TraceIO.h"
#include "trace/WorkloadFactory.h"

#include "TestHelpers.h"

namespace csr
{
namespace
{

/** Temp-file path helper; removes the file on destruction. */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(csr::test::uniqueTempPath(name))
    {
        std::remove(path_.c_str());
    }
    ~TempPath() { std::remove(path_.c_str()); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

TEST(Errors, KindsAndExitCodesAreDistinct)
{
    const ConfigError config("c");
    const TraceFormatError trace("t", 7);
    const CheckpointError checkpoint("k");
    const SimulationStallError stall("s", "snapshot");
    const InvariantError invariant("i");
    const InjectedFaultError injected("f");

    EXPECT_STREQ(config.kind(), "ConfigError");
    EXPECT_EQ(config.exitCode(), exitcode::kConfig);
    EXPECT_EQ(trace.exitCode(), exitcode::kTraceFormat);
    EXPECT_EQ(checkpoint.exitCode(), exitcode::kCheckpoint);
    EXPECT_EQ(stall.exitCode(), exitcode::kStall);
    EXPECT_EQ(invariant.exitCode(), exitcode::kInvariant);
    EXPECT_EQ(injected.exitCode(), exitcode::kInjectedFault);

    EXPECT_EQ(trace.byteOffset(), 7u);
    EXPECT_NE(std::string(trace.what()).find("byte offset 7"),
              std::string::npos);
    EXPECT_EQ(stall.snapshot(), "snapshot");
    // Every typed error is catchable as csr::Error.
    EXPECT_THROW(throw ConfigError("x"), Error);
}

// ---------------------------------------------------------------------------
// JSONL substrate
// ---------------------------------------------------------------------------

TEST(CheckpointLog, WriterReaderRoundTrip)
{
    TempPath path("jsonl_roundtrip.jsonl");
    {
        JsonlWriter writer;
        writer.open(path.str(), /*truncate=*/true);
        writer.appendLine("{\"a\":1}");
        writer.appendLine("{\"b\":\"two\"}");
    }
    const auto records = readJsonlFile(path.str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].text, "{\"a\":1}");
    EXPECT_EQ(records[0].lineNumber, 1u);
    EXPECT_EQ(records[0].byteOffset, 0u);
    EXPECT_TRUE(records[0].terminated);
    EXPECT_EQ(records[1].byteOffset, 8u);
    EXPECT_TRUE(records[1].terminated);
}

TEST(CheckpointLog, MissingFileReadsEmpty)
{
    EXPECT_TRUE(readJsonlFile("/nonexistent/definitely/not.jsonl")
                    .empty());
}

TEST(CheckpointLog, UnwritablePathIsConfigError)
{
    JsonlWriter writer;
    EXPECT_THROW(writer.open("/nonexistent-dir/x.jsonl", true),
                 ConfigError);
}

TEST(CheckpointLog, TornFinalLineIsMarkedUnterminated)
{
    TempPath path("jsonl_torn.jsonl");
    {
        std::ofstream os(path.str(), std::ios::binary);
        os << "{\"a\":1}\n{\"b\":2";  // killed mid-append
    }
    const auto records = readJsonlFile(path.str());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].terminated);
    EXPECT_FALSE(records[1].terminated);
    EXPECT_EQ(records[1].text, "{\"b\":2");
}

TEST(CheckpointLog, DoubleBitsRoundTripExactly)
{
    const double values[] = {0.0, -0.0, 1.0 / 3.0, -13.957,
                             1e308, 5e-324};
    for (const double v : values) {
        JsonlRecord record;
        record.text = "{\"v\":\"" + jsonDoubleBits(v) + "\"}";
        record.terminated = true;
        const JsonLineView line(record);
        const double back = line.getDoubleBits("v");
        EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
            << jsonDoubleBits(v);
    }
}

TEST(CheckpointLog, EscapeRoundTripsThroughParser)
{
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    JsonlRecord record;
    record.text = "{\"k\":\"" + jsonEscape(nasty) + "\"}";
    record.terminated = true;
    const JsonLineView line(record);
    EXPECT_EQ(line.getString("k"), nasty);
}

TEST(CheckpointLog, MalformedLinesThrowNeverCrash)
{
    const char *bad[] = {
        "",
        "x",
        "{",
        "}",
        "{}x",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1",
        "{\"a\":1,}",
        "{'a':1}",
        "{\"a\":01x}",
        "{\"a\":\"unterminated",
        "{\"a\":\"bad\\q\"}",
        "{\"a\":\"\\u12\"}",
        "{\"a\":[1,2]}",
        "{\"a\":{\"b\":1}}",
        "{\"a\":1}{\"b\":2}",
        "\xff\xfe\x00garbage",
    };
    for (const char *text : bad) {
        JsonlRecord record;
        record.text = text;
        record.lineNumber = 3;
        record.terminated = true;
        EXPECT_THROW(JsonLineView{record}, CheckpointError) << text;
    }
}

TEST(CheckpointLog, AccessorsTypeCheck)
{
    JsonlRecord record;
    record.text = "{\"s\":\"x\",\"n\":12,\"neg\":-3,\"bits\":\"zz\"}";
    record.terminated = true;
    const JsonLineView line(record);
    EXPECT_EQ(line.getString("s"), "x");
    EXPECT_EQ(line.getUInt("n"), 12u);
    EXPECT_THROW(line.getUInt("missing"), CheckpointError);
    EXPECT_THROW(line.getUInt("s"), CheckpointError);   // string
    EXPECT_THROW(line.getUInt("neg"), CheckpointError); // negative
    EXPECT_THROW(line.getString("n"), CheckpointError); // number
    EXPECT_THROW(line.getDoubleBits("bits"), CheckpointError);
}

// ---------------------------------------------------------------------------
// Sweep checkpoint codec
// ---------------------------------------------------------------------------

SweepGrid
tinyGrid()
{
    SweepGrid grid;
    grid.scale = WorkloadScale::Test;
    grid.benchmarks = {BenchmarkId::Lu};
    grid.policies = {PolicyKind::Lru, PolicyKind::Dcl};
    return grid;
}

TEST(SweepCheckpoint, FingerprintIsOrderAndContentSensitive)
{
    const auto cells = tinyGrid().expand();
    ASSERT_EQ(cells.size(), 2u);
    auto reversed = cells;
    std::swap(reversed[0], reversed[1]);
    EXPECT_NE(gridFingerprint(cells), gridFingerprint(reversed));
    EXPECT_NE(gridFingerprint(cells),
              gridFingerprint({cells.begin(), cells.begin() + 1}));
    EXPECT_EQ(gridFingerprint(cells),
              gridFingerprint(tinyGrid().expand()));
}

TEST(SweepCheckpoint, CellAndFailureLinesRoundTrip)
{
    const auto cells = tinyGrid().expand();
    TempPath path("ckpt_roundtrip.jsonl");

    SweepCellResult result;
    result.cell = cells[0];
    result.index = 0;
    result.sampledRefs = 123;
    result.l2Hits = 45;
    result.l2Misses = 78;
    result.aggregateCost = 1.0 / 3.0;
    result.lruCost = -7.125;
    result.savingsPct = 99.9;

    CellFailure failure;
    failure.cell = cells[1];
    failure.index = 1;
    failure.kind = "InjectedFaultError";
    failure.message = "weird \"quoted\"\nmessage";
    failure.attempts = 3;

    {
        JsonlWriter writer;
        writer.open(path.str(), true);
        writer.appendLine(
            checkpointHeaderLine(gridFingerprint(cells), cells.size()));
        writer.appendLine(checkpointCellLine(result));
        writer.appendLine(checkpointFailureLine(failure));
    }

    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    ASSERT_EQ(state.results.size(), 1u);
    ASSERT_EQ(state.failures.size(), 1u);
    const SweepCellResult &r = state.results.at(0);
    EXPECT_EQ(r.sampledRefs, 123u);
    EXPECT_EQ(r.l2Misses, 78u);
    EXPECT_EQ(r.aggregateCost, 1.0 / 3.0);
    EXPECT_EQ(r.lruCost, -7.125);
    const CellFailure &f = state.failures.at(1);
    EXPECT_EQ(f.kind, "InjectedFaultError");
    EXPECT_EQ(f.message, failure.message);
    EXPECT_EQ(f.attempts, 3u);
}

TEST(SweepCheckpoint, LaterSuccessSupersedesEarlierFailure)
{
    const auto cells = tinyGrid().expand();
    TempPath path("ckpt_supersede.jsonl");

    CellFailure failure;
    failure.cell = cells[0];
    failure.index = 0;
    failure.kind = "InjectedFaultError";
    failure.message = "transient";

    SweepCellResult result;
    result.cell = cells[0];
    result.index = 0;
    result.sampledRefs = 11;

    {
        JsonlWriter writer;
        writer.open(path.str(), true);
        writer.appendLine(
            checkpointHeaderLine(gridFingerprint(cells), cells.size()));
        writer.appendLine(checkpointFailureLine(failure));
        writer.appendLine(checkpointCellLine(result));
    }
    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_EQ(state.results.size(), 1u);
    EXPECT_TRUE(state.failures.empty());
}

TEST(SweepCheckpoint, WrongGridOrCorruptJournalIsCheckpointError)
{
    const auto cells = tinyGrid().expand();
    auto other = tinyGrid();
    other.policies = {PolicyKind::Lru};
    const auto other_cells = other.expand();

    TempPath path("ckpt_badgrid.jsonl");
    {
        JsonlWriter writer;
        writer.open(path.str(), true);
        writer.appendLine(checkpointHeaderLine(
            gridFingerprint(other_cells), other_cells.size()));
    }
    EXPECT_THROW(loadSweepCheckpoint(path.str(), cells),
                 CheckpointError);

    const char *bad_bodies[] = {
        "{\"type\":\"cell\",\"index\":0}",          // no header first
        "not json at all",
        "{\"type\":\"header\",\"version\":99,\"fingerprint\":1,"
        "\"cells\":2}",
    };
    for (const char *body : bad_bodies) {
        std::ofstream os(path.str(), std::ios::binary);
        os << body << "\n";
        os.close();
        EXPECT_THROW(loadSweepCheckpoint(path.str(), cells),
                     CheckpointError)
            << body;
    }

    // A torn *final* line is the kill signature, not corruption.
    {
        std::ofstream os(path.str(), std::ios::binary);
        os << checkpointHeaderLine(gridFingerprint(cells),
                                   cells.size())
           << "\n{\"type\":\"cell\",\"index\":0,\"ha";
    }
    const auto state = loadSweepCheckpoint(path.str(), cells);
    EXPECT_TRUE(state.headerValid);
    EXPECT_EQ(state.restoredCount(), 0u);
}

// ---------------------------------------------------------------------------
// Fault isolation, retry, resume
// ---------------------------------------------------------------------------

TEST(SweepRobust, OneFailingCellDoesNotTakeDownTheGrid)
{
    const SweepGrid grid = tinyGrid();
    SweepOptions options;
    options.cellProbe = [](const SweepCell &cell, unsigned) {
        if (cell.policy == PolicyKind::Dcl)
            throw TraceFormatError("synthetic corruption", 42);
    };
    const SweepResult result = SweepRunner(2).run(grid, options);
    EXPECT_FALSE(result.complete());
    EXPECT_EQ(result.gridCells, 2u);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_EQ(result.cells[0].cell.policy, PolicyKind::Lru);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kind, "TraceFormatError");
    EXPECT_EQ(result.failures[0].attempts, 1u);
    EXPECT_EQ(result.failureTable().numRows(), 1u);
}

TEST(SweepRobust, RetriesRecoverTransientFailures)
{
    const SweepGrid grid = tinyGrid();
    SweepOptions options;
    options.maxAttempts = 3;
    options.retryBackoffMs = 0;
    options.cellProbe = [](const SweepCell &, unsigned attempt) {
        if (attempt < 3)
            throw CheckpointError("transient");
    };
    const SweepResult result = SweepRunner(2).run(grid, options);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.cells.size(), 2u);

    // One attempt fewer and the same failure is terminal.
    options.maxAttempts = 2;
    const SweepResult failed = SweepRunner(2).run(grid, options);
    EXPECT_EQ(failed.failures.size(), 2u);
    EXPECT_EQ(failed.failures[0].attempts, 2u);
}

TEST(SweepRobust, NonCsrExceptionsAreIsolatedToo)
{
    SweepOptions options;
    options.cellProbe = [](const SweepCell &cell, unsigned) {
        if (cell.policy == PolicyKind::Lru)
            throw std::runtime_error("not a csr::Error");
    };
    const SweepResult result = SweepRunner(2).run(tinyGrid(), options);
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].kind, "std::exception");
}

TEST(SweepRobust, KilledSweepResumesByteIdentically)
{
    const SweepGrid grid = tinyGrid();
    TempPath uninterrupted_json("resume_clean.json");
    TempPath interrupted_json("resume_resumed.json");
    TempPath checkpoint("resume_ck.jsonl");

    // The reference: one uninterrupted run.
    SweepRunner(2).run(grid).writeJson(uninterrupted_json.str(),
                                       /*include_timing=*/false);

    // "Kill" the sweep partway: the second cell dies every attempt.
    SweepOptions crash;
    crash.checkpointPath = checkpoint.str();
    crash.cellProbe = [](const SweepCell &cell, unsigned) {
        if (cell.policy == PolicyKind::Dcl)
            throw CheckpointError("process killed here");
    };
    // jobs=1 so the journal's line order is deterministic: the
    // success line lands before the failure line we tear below.
    const SweepResult partial = SweepRunner(1).run(grid, crash);
    EXPECT_FALSE(partial.complete());

    // Tear the journal's final line as a real SIGKILL would.
    std::string journal = slurp(checkpoint.str());
    ASSERT_FALSE(journal.empty());
    journal.resize(journal.size() - 3);
    {
        std::ofstream os(checkpoint.str(), std::ios::binary);
        os << journal;
    }

    // Resume: restored cells are not re-run, the rest complete.
    SweepOptions resume;
    resume.checkpointPath = checkpoint.str();
    resume.resume = true;
    const SweepResult resumed = SweepRunner(2).run(grid, resume);
    EXPECT_TRUE(resumed.complete());
    EXPECT_GE(resumed.resumedCells, 1u);

    resumed.writeJson(interrupted_json.str(),
                      /*include_timing=*/false);
    EXPECT_EQ(slurp(uninterrupted_json.str()),
              slurp(interrupted_json.str()));
}

TEST(SweepRobust, ResumeAgainstDifferentGridIsCheckpointError)
{
    TempPath checkpoint("resume_wronggrid.jsonl");
    SweepOptions options;
    options.checkpointPath = checkpoint.str();
    SweepRunner(1).run(tinyGrid(), options);

    SweepGrid other = tinyGrid();
    other.benchmarks = {BenchmarkId::Barnes};
    options.resume = true;
    EXPECT_THROW(SweepRunner(1).run(other, options), CheckpointError);
}

// ---------------------------------------------------------------------------
// Hardened trace parsing
// ---------------------------------------------------------------------------

std::string
validBinaryTrace()
{
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(os, {{0x1000, 0, false},
                          {0x2040, 3, true},
                          {0x3f80, 15, false}});
    return os.str();
}

TEST(TraceRobust, EveryTruncationThrowsTraceFormatError)
{
    const std::string full = validBinaryTrace();
    {
        std::istringstream is(full, std::ios::binary);
        EXPECT_EQ(readTraceBinary(is).size(), 3u);
    }
    for (std::size_t len = 0; len < full.size(); ++len) {
        std::istringstream is(full.substr(0, len), std::ios::binary);
        EXPECT_THROW(readTraceBinary(is), TraceFormatError)
            << "prefix length " << len;
    }
}

TEST(TraceRobust, BadMagicAndBitsCarryOffsets)
{
    std::istringstream garbage("XXXXGARBAGE", std::ios::binary);
    try {
        readTraceBinary(garbage);
        FAIL() << "no throw";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), 0u);
    }

    // Flip a reserved meta bit inside the first record.
    std::string bad = validBinaryTrace();
    bad[20 + 11] = '\x40';
    std::istringstream is(bad, std::ios::binary);
    try {
        readTraceBinary(is);
        FAIL() << "no throw";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), 28u); // header + first record's meta
    }
}

TEST(TraceRobust, HugeDeclaredCountDoesNotPreallocate)
{
    // Header declaring 2^56 records followed by nothing: must throw
    // truncation promptly instead of reserving petabytes.
    std::ostringstream os(std::ios::binary);
    writeTraceBinary(os, {});
    std::string data = os.str();
    data[12] = '\x00';
    data[19] = '\x01'; // count = 1 << 56
    std::istringstream is(data, std::ios::binary);
    EXPECT_THROW(readTraceBinary(is), TraceFormatError);
}

TEST(TraceRobust, MalformedTextLinesThrowWithOffsets)
{
    const char *bad[] = {"bogus\n", "R\n", "R 1\n", "X 1 1000\n",
                         "R 99999 1000\n", "R 1 zz\n"};
    for (const char *text : bad) {
        std::istringstream is(std::string("# ok\n") + text);
        EXPECT_THROW(readTraceText(is), TraceFormatError) << text;
    }
    std::istringstream is("# c\nR 1 40\nW 70000 80\n");
    try {
        readTraceText(is);
        FAIL() << "no throw";
    } catch (const TraceFormatError &e) {
        EXPECT_EQ(e.byteOffset(), 11u); // start of the bad line
    }
}

TEST(TraceRobust, MissingFilesAreConfigErrors)
{
    EXPECT_THROW(loadTrace("/nonexistent/trace.bin"), ConfigError);
    EXPECT_THROW(saveTrace("/nonexistent-dir/trace.bin", {}),
                 ConfigError);
}

// ---------------------------------------------------------------------------
// NUMA stall watchdog & budget
// ---------------------------------------------------------------------------

TEST(NumaRobust, CycleBudgetRaisesStallWithSnapshot)
{
    NumaConfig config;
    config.cycleNs = 1;
    config.maxSimNs = 500; // far too little for any benchmark
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);
    NumaSystem sys(config, *wl);
    try {
        sys.run();
        FAIL() << "no throw";
    } catch (const SimulationStallError &e) {
        EXPECT_NE(e.snapshot().find("numa diagnostic snapshot"),
                  std::string::npos);
        EXPECT_NE(e.snapshot().find("node  0"), std::string::npos);
        EXPECT_NE(e.snapshot().find("network"), std::string::npos);
    }
}

/** A self-perpetuating no-op event chain: simulated time advances
 *  forever, but once the processors have finished nothing retires
 *  and no miss completes -- the exact signature of a protocol
 *  livelock, crafted without having to break the protocol. */
struct FrozenTick
{
    NumaSystem *sys;

    void operator()() const { sys->events().scheduleIn(50, *this); }
};

TEST(NumaRobust, WatchdogCatchesFrozenProgress)
{
    NumaConfig config;
    config.cycleNs = 1;
    config.stallWindowNs = 5'000;
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);
    NumaSystem sys(config, *wl);

    sys.events().schedule(0, FrozenTick{&sys});

    try {
        sys.run();
        FAIL() << "no throw";
    } catch (const SimulationStallError &e) {
        // The watchdog, not the cycle budget, fired.
        EXPECT_NE(std::string(e.what()).find("no op retired"),
                  std::string::npos)
            << e.what();
    }
}

TEST(NumaRobust, ValidateCadenceCompletesOnHealthyRun)
{
    NumaConfig config;
    config.cycleNs = 1;
    config.validateEveryEvents = 2048;
    auto wl = makeWorkload(BenchmarkId::Lu, WorkloadScale::Test, true);
    NumaSystem sys(config, *wl);
    const NumaResult result = sys.run();
    EXPECT_GT(result.totalOps, 0u);
}

// ---------------------------------------------------------------------------
// Cache/policy invariant checks (--validate)
// ---------------------------------------------------------------------------

TEST(ValidateMode, SweepWithInvariantChecksMatchesWithout)
{
    SweepGrid grid = tinyGrid();
    SweepOptions checked;
    checked.validateEveryRefs = 512;
    const SweepResult a = SweepRunner(2).run(grid);
    const SweepResult b = SweepRunner(2).run(grid, checked);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].l2Misses, b.cells[i].l2Misses);
        EXPECT_EQ(a.cells[i].aggregateCost, b.cells[i].aggregateCost);
    }
}

// ---------------------------------------------------------------------------
// Injected faults (SweepCell chaos decisions at the cell hook)
// ---------------------------------------------------------------------------

SweepOptions
faultOptions(double rate, std::uint64_t seed, unsigned max_attempts)
{
    ChaosConfig chaos;
    chaos.rate = rate;
    chaos.seed = seed;
    SweepOptions options;
    options.maxAttempts = max_attempts;
    options.retryBackoffMs = 0;
    options.cellProbe = injectFaults(chaos);
    return options;
}

/** Ten cells: every paper policy at two cost ratios. */
SweepGrid
tenCellGrid()
{
    SweepGrid grid = tinyGrid();
    grid.policies = paperPolicies();
    grid.ratios = {CostRatio::finite(2), CostRatio::finite(8)};
    return grid;
}

TEST(SweepFaults, RateOneFailsEveryCellAndNeverTheSetup)
{
    EXPECT_FALSE(injectFaults(ChaosConfig{})); // off: no probe at all

    // The shared setup (traces, LRU profiles) runs before any cell
    // hook, so run() returns; every cell attempt then fails.
    const SweepResult result =
        SweepRunner(2).run(tinyGrid(), faultOptions(1.0, 99, 2));
    EXPECT_TRUE(result.cells.empty());
    ASSERT_EQ(result.failures.size(), 2u);
    for (const CellFailure &failure : result.failures) {
        EXPECT_EQ(failure.kind, "InjectedFaultError");
        EXPECT_EQ(failure.attempts, 2u);
    }
}

TEST(SweepFaults, SameCellsFailAtAnyJobs)
{
    const SweepOptions options = faultOptions(0.4, 2026, 2);
    const SweepResult a = SweepRunner(1).run(tenCellGrid(), options);
    const SweepResult b = SweepRunner(8).run(tenCellGrid(), options);

    // Decisions are pure in (seed, cell, attempt): the same cells fail
    // after the same attempts, regardless of worker count.
    EXPECT_FALSE(a.failures.empty());
    EXPECT_FALSE(a.cells.empty());
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        EXPECT_EQ(a.failures[i].index, b.failures[i].index);
        EXPECT_EQ(a.failures[i].attempts, b.failures[i].attempts);
        EXPECT_EQ(a.failures[i].message, b.failures[i].message);
    }
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        EXPECT_EQ(a.cells[i].index, b.cells[i].index);
        EXPECT_EQ(a.cells[i].aggregateCost, b.cells[i].aggregateCost);
    }
}

TEST(SweepFaults, RetriesDrawFreshDecisions)
{
    // One attempt at rate 0.5 loses some cells...
    const SweepResult once =
        SweepRunner(2).run(tenCellGrid(), faultOptions(0.5, 5, 1));
    EXPECT_FALSE(once.failures.empty());

    // ...but each retry is a new draw, so with enough attempts every
    // cell gets through, with the result of a clean run.
    const SweepResult retried =
        SweepRunner(2).run(tenCellGrid(), faultOptions(0.5, 5, 32));
    const SweepResult clean = SweepRunner(2).run(tenCellGrid());
    EXPECT_TRUE(retried.complete());
    ASSERT_EQ(retried.cells.size(), clean.cells.size());
    for (std::size_t i = 0; i < clean.cells.size(); ++i)
        EXPECT_EQ(retried.cells[i].aggregateCost,
                  clean.cells[i].aggregateCost);
}

} // namespace
} // namespace csr
