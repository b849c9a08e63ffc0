/**
 * @file
 * csrbench: runs one workload of the libcsr benchmark.
 *
 *   csrbench --workload paper-sim|kv-inproc|kv-wire --seed N
 *            --seconds S --trace 0|1 [--work-dir DIR] [--counters-only]
 *
 * Prints the report (every metric by name and unit, "n/a" where a
 * quantity was not measured) and, as the last line, one JSON object
 * with the correctness verdict, the op counts, the digest of the
 * deterministic counters, and every measured metric.  perfbench/run.py
 * builds this program, checks the digest against the pinned values
 * and trims the metrics to the ones BENCHMARK.json names.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "Measure.h"
#include "Workloads.h"
#include "replay/Format.h"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "csrbench: %s\nusage: csrbench --workload "
                 "paper-sim|kv-inproc|kv-wire --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--counters-only]\n",
                 why);
    std::exit(2);
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--counters-only") {
            args.countersOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value after " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--work-dir")
                args.workDir = value;
            else
                usage(("unknown flag " + flag).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (args.seconds <= 0.0)
        usage("--seconds must be positive");
    return args;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const RunArgs args = parseArgs(argc, argv);
    SpanRecorder spans(args.trace && !args.countersOnly);
    Outcome out;
    try {
        if (args.workload == "paper-sim")
            runPaperSim(args, spans, out);
        else if (args.workload == "kv-inproc")
            runKvInproc(args, spans, out);
        else if (args.workload == "kv-wire")
            runKvWire(args, spans, out);
        else
            usage(("unknown workload '" + args.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "csrbench: %s: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }

    const std::string stem = args.workDir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    {
        // The counters behind the digest, for diffing against a run
        // of another build when the pinned digest no longer matches.
        std::FILE *f = std::fopen((stem + ".counters.txt").c_str(), "w");
        if (f) {
            std::fputs(out.counters.c_str(), f);
            std::fclose(f);
        }
    }
    if (spans.enabled()) {
        spans.writeChromeTrace(stem + ".trace.json");
        std::printf("spans (self s / total s):\n");
        for (const std::string &name : spans.names())
            std::printf("  %-24s %10.4f %10.4f\n", name.c_str(),
                        spans.selfSeconds(name), spans.totalSeconds(name));
    }

    out.report.set("peak_rss_mb", "MB", peakRssMb());
    out.report.set("failed_frac", "ratio",
                   out.attempted ? std::optional<double>(
                                       static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted))
                                 : std::nullopt);
    std::printf("%s seed=%" PRIu64 " seconds=%g trace=%d\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0);
    out.report.print(stdout);
    for (const std::string &n : out.notes)
        std::printf("%s\n", n.c_str());
    for (const std::string &p : out.problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());

    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                  csr::replay::format::fnv1aString(out.counters));
    std::string problems = "[";
    for (std::size_t i = 0; i < out.problems.size(); ++i)
        problems += (i ? ", " : "") + jsonString(out.problems[i]);
    problems += "]";
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64
                ", \"digest\": \"%s\", \"problems\": %s, \"metrics\": %s}\n",
                out.correct() ? "true" : "false", out.attempted, out.failed,
                digest, problems.c_str(), out.report.json().c_str());
    return 0;
}
