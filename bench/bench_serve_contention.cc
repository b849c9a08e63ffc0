/**
 * @file
 * Contention scaling of the csr::serve hit path: locked vs seqlock
 * throughput as workers pile onto the same shards.
 *
 * Every cell replays the same read-only Zipfian stream (writeFraction
 * 0, keyspace sized so the cache holds the hot set and gets mostly
 * hit) under --affinity free, so every worker contends on every
 * shard.  Under the locked hit path that serializes each shard on its
 * mutex; under the seqlock path read hits take no lock at all, so hit
 * throughput should scale with the worker count.
 *
 * The figure of merit CI gates on: for each policy,
 *
 *     scaling = seqlock hits/s at max workers
 *             / locked  hits/s at the first (lowest) worker count
 *
 * --min-scaling F makes the binary exit non-zero when any policy's
 * scaling falls below F (the CI contention job passes 2.0).  On a
 * single-core host the ratio caps near 1.0 -- gate only where the
 * runner actually has cores.
 *
 * A second sweep measures the WRITE path: the same stream with
 * --write-fracs (default 0.3) mixed writes, replayed against the
 * single-mutex shard ("locked": --stripes 1, locked hit path) and the
 * striped shard ("striped": --stripes N, seqlock hit path).  Writes
 * serialize per stripe, so striping is what lets them scale; the
 * figure of merit per policy and write fraction is
 *
 *     write scaling = striped ops/s at max workers
 *                   / locked  ops/s at the first worker count
 *
 * gated by --min-write-scaling F (the CI contention job passes 1.5 at
 * 30% writes; same single-core caveat as above).
 *
 * JSON (BENCH_contention.json by default) carries every cell of both
 * sweeps plus the scaling summaries for the artifact archive.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "cache/SimdScan.h"
#include "robust/Errors.h"
#include "serve/CacheService.h"
#include "serve/LoadHarness.h"
#include "serve/SyntheticBackend.h"

using namespace csr;
using namespace csr::serve;

namespace
{

std::uint64_t
opsForScale(WorkloadScale scale)
{
    switch (scale) {
      case WorkloadScale::Test:
        return 200'000;
      case WorkloadScale::Small:
        return 2'000'000;
      case WorkloadScale::Full:
        return 8'000'000;
    }
    return 2'000'000;
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

struct Cell
{
    std::string policy;
    HitPath path = HitPath::Locked;
    unsigned workers = 0;
    double wallSec = 0.0;
    std::uint64_t hits = 0;
    double hitsPerSec = 0.0;
    ServeTotals totals;
};

/** One measurement of the write sweep: a (policy, shard config,
 *  write fraction, workers) replay, scored in whole ops/s because
 *  writes never hit. */
struct WriteCell
{
    std::string policy;
    std::string config; // "locked" or "striped"
    unsigned stripes = 1;
    double writeFrac = 0.0;
    unsigned workers = 0;
    double wallSec = 0.0;
    double opsPerSec = 0.0;
    ServeTotals totals;
};

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = bench::benchArgs(
        argc, argv,
        {"policies", "workers", "ops", "keys", "min-scaling",
         "write-fracs", "stripes", "min-write-scaling"});
    const WorkloadScale scale = parseScale(args.get("scale", "small"));
    printBanner(std::cout,
                "Serving mode: hit-path contention scaling "
                "(locked vs seqlock, --affinity free)",
                scale);
    std::cout << "### tag scan ISA: " << simd::tagScanIsa() << "\n\n";

    const std::uint64_t ops =
        args.getUInt("ops", opsForScale(scale));
    // Keyspace close to cache capacity: the stream mostly hits, so
    // the hit path -- not the backend -- is what's being measured.
    const std::uint64_t keys = args.getUInt("keys", 16'384);
    const double min_scaling = args.getDouble("min-scaling", 0.0);
    const double min_write_scaling =
        args.getDouble("min-write-scaling", 0.0);
    unsigned striped_stripes = kStripesAuto;
    try {
        striped_stripes = requireStripes(args.get("stripes", "4"));
    } catch (const ConfigError &err) {
        std::cerr << "ConfigError: " << err.what() << "\n";
        return exitcode::kConfig;
    }
    std::vector<double> write_fracs;
    for (const std::string &item :
         splitList(args.get("write-fracs", "0.3"))) {
        char *end = nullptr;
        const double f = std::strtod(item.c_str(), &end);
        if (end == item.c_str() || *end != '\0' || f < 0.0 ||
            f > 1.0) {
            std::cerr << "ConfigError: --write-fracs entries must be "
                         "fractions in [0, 1]\n";
            return exitcode::kConfig;
        }
        write_fracs.push_back(f);
    }
    if (write_fracs.empty()) {
        std::cerr << "ConfigError: --write-fracs must be non-empty\n";
        return exitcode::kConfig;
    }

    std::vector<PolicyKind> policies;
    for (const std::string &name :
         splitList(args.get("policies", "lru,acl"))) {
        const auto kind = parsePolicyKind(name);
        if (!kind) {
            std::cerr << "ConfigError: unknown policy '" << name
                      << "'\n";
            return exitcode::kConfig;
        }
        policies.push_back(*kind);
    }
    std::vector<unsigned> worker_list;
    for (const std::string &item :
         splitList(args.get("workers", "1,2,4"))) {
        const unsigned w = static_cast<unsigned>(
            std::strtoul(item.c_str(), nullptr, 10));
        if (w == 0) {
            std::cerr << "ConfigError: --workers entries must be "
                         "positive\n";
            return exitcode::kConfig;
        }
        worker_list.push_back(w);
    }
    if (policies.empty() || worker_list.empty()) {
        std::cerr << "ConfigError: --policies and --workers must be "
                     "non-empty\n";
        return exitcode::kConfig;
    }

    std::vector<Cell> cells;
    for (const PolicyKind kind : policies) {
        for (const HitPath path :
             {HitPath::Locked, HitPath::Seqlock}) {
            for (const unsigned workers : worker_list) {
                ServeConfig serve_config;
                serve_config.shards = 4;
                serve_config.shardBytes = 256 * 1024;
                serve_config.policy = kind;
                serve_config.policyParams.seed = args.seed(7);
                serve_config.hitPath = path;

                SyntheticBackendConfig backend_config;
                backend_config.seed = args.seed(7);

                HarnessConfig harness;
                harness.ops = ops;
                harness.workers = workers;
                harness.seed = args.seed(7);
                harness.shardAffinity = false; // real contention
                harness.mix.numKeys = keys;
                harness.mix.writeFraction = 0.0;

                SyntheticBackend backend(backend_config);
                CacheService service(serve_config, backend);
                const HarnessResult result = runLoad(service, harness);
                service.checkInvariants();

                Cell cell;
                cell.policy = service.policyName();
                cell.path = path;
                cell.workers = workers;
                cell.wallSec = result.wallSec;
                cell.hits = result.totals.hits;
                cell.hitsPerSec =
                    result.wallSec > 0.0
                        ? static_cast<double>(result.totals.hits) /
                              result.wallSec
                        : 0.0;
                cell.totals = result.totals;
                cells.push_back(cell);
            }
        }
    }

    TextTable table("hit throughput (M hits/s) by policy, hit path, "
                    "workers");
    std::vector<std::string> header = {"Policy / path"};
    for (const unsigned w : worker_list)
        header.push_back("w=" + std::to_string(w));
    table.setHeader(header);
    for (std::size_t row = 0; row < cells.size();
         row += worker_list.size()) {
        std::vector<std::string> out = {
            cells[row].policy + " / " + hitPathName(cells[row].path)};
        for (std::size_t i = 0; i < worker_list.size(); ++i)
            out.push_back(TextTable::num(
                cells[row + i].hitsPerSec / 1e6, 2));
        table.addRow(out);
    }
    table.print(std::cout);

    // Scaling summary: seqlock at max workers over the locked
    // single-worker baseline, per policy.
    struct Scaling
    {
        std::string policy;
        double baselineHps = 0.0;
        double seqlockHps = 0.0;
        double ratio = 0.0;
    };
    std::vector<Scaling> scalings;
    const std::size_t per_policy = 2 * worker_list.size();
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const Cell &baseline = cells[p * per_policy]; // locked, first w
        const Cell &peak =
            cells[p * per_policy + per_policy - 1]; // seqlock, max w
        Scaling s;
        s.policy = baseline.policy;
        s.baselineHps = baseline.hitsPerSec;
        s.seqlockHps = peak.hitsPerSec;
        s.ratio = baseline.hitsPerSec > 0.0
                      ? peak.hitsPerSec / baseline.hitsPerSec
                      : 0.0;
        scalings.push_back(s);
    }

    TextTable summary("scaling: seqlock@w=" +
                      std::to_string(worker_list.back()) +
                      " / locked@w=" +
                      std::to_string(worker_list.front()));
    summary.setHeader({"Policy", "locked (M/s)", "seqlock (M/s)",
                       "scaling (x)"});
    for (const Scaling &s : scalings)
        summary.addRow({s.policy,
                        TextTable::num(s.baselineHps / 1e6, 2),
                        TextTable::num(s.seqlockHps / 1e6, 2),
                        TextTable::num(s.ratio, 2)});
    summary.print(std::cout);

    // ---- Write sweep: single-mutex shard vs striped shard --------
    // Writes always take the stripe lock, so the locked config (one
    // stripe, locked hit path) is the PR 6 shard verbatim and the
    // striped config is what this bench exists to defend.
    struct WriteSpec
    {
        const char *name;
        HitPath path;
        unsigned stripes;
    };
    const WriteSpec write_specs[2] = {
        {"locked", HitPath::Locked, 1},
        {"striped", HitPath::Seqlock, striped_stripes},
    };

    std::vector<WriteCell> write_cells;
    for (const PolicyKind kind : policies) {
        for (const double frac : write_fracs) {
            for (const WriteSpec &spec : write_specs) {
                for (const unsigned workers : worker_list) {
                    ServeConfig serve_config;
                    serve_config.shards = 4;
                    serve_config.shardBytes = 256 * 1024;
                    serve_config.policy = kind;
                    serve_config.policyParams.seed = args.seed(7);
                    serve_config.hitPath = spec.path;
                    serve_config.stripes = spec.stripes;

                    SyntheticBackendConfig backend_config;
                    backend_config.seed = args.seed(7);

                    HarnessConfig harness;
                    harness.ops = ops;
                    harness.workers = workers;
                    harness.seed = args.seed(7);
                    harness.shardAffinity = false; // real contention
                    harness.mix.numKeys = keys;
                    harness.mix.writeFraction = frac;

                    SyntheticBackend backend(backend_config);
                    CacheService service(serve_config, backend);
                    const HarnessResult result =
                        runLoad(service, harness);
                    service.checkInvariants();

                    WriteCell cell;
                    cell.policy = service.policyName();
                    cell.config = spec.name;
                    cell.stripes = service.numStripes();
                    cell.writeFrac = frac;
                    cell.workers = workers;
                    cell.wallSec = result.wallSec;
                    cell.opsPerSec =
                        result.wallSec > 0.0
                            ? static_cast<double>(ops) /
                                  result.wallSec
                            : 0.0;
                    cell.totals = result.totals;
                    write_cells.push_back(cell);
                }
            }
        }
    }

    const unsigned resolved_stripes =
        write_cells[worker_list.size()].stripes; // first striped cell
    TextTable wtable("write-mix throughput (M ops/s): locked "
                     "(1 stripe) vs striped (" +
                     std::to_string(resolved_stripes) + " stripes)");
    std::vector<std::string> wheader = {"Policy / config / wf"};
    for (const unsigned w : worker_list)
        wheader.push_back("w=" + std::to_string(w));
    wtable.setHeader(wheader);
    for (std::size_t row = 0; row < write_cells.size();
         row += worker_list.size()) {
        const WriteCell &c = write_cells[row];
        std::vector<std::string> out = {
            c.policy + " / " + c.config + " / wf=" +
            TextTable::num(c.writeFrac, 2)};
        for (std::size_t i = 0; i < worker_list.size(); ++i)
            out.push_back(TextTable::num(
                write_cells[row + i].opsPerSec / 1e6, 2));
        wtable.addRow(out);
    }
    wtable.print(std::cout);

    // Write scaling: striped at max workers over the locked
    // single-worker baseline, per policy and write fraction.
    struct WriteScaling
    {
        std::string policy;
        double writeFrac = 0.0;
        double lockedOps = 0.0;
        double stripedOps = 0.0;
        double ratio = 0.0;
    };
    std::vector<WriteScaling> write_scalings;
    const std::size_t per_frac = 2 * worker_list.size();
    const std::size_t per_policy_w = write_fracs.size() * per_frac;
    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::size_t f = 0; f < write_fracs.size(); ++f) {
            const std::size_t base = p * per_policy_w + f * per_frac;
            const WriteCell &locked = write_cells[base];
            const WriteCell &striped =
                write_cells[base + per_frac - 1];
            WriteScaling s;
            s.policy = locked.policy;
            s.writeFrac = locked.writeFrac;
            s.lockedOps = locked.opsPerSec;
            s.stripedOps = striped.opsPerSec;
            s.ratio = locked.opsPerSec > 0.0
                          ? striped.opsPerSec / locked.opsPerSec
                          : 0.0;
            write_scalings.push_back(s);
        }
    }

    TextTable wsummary("write scaling: striped@w=" +
                       std::to_string(worker_list.back()) +
                       " / locked@w=" +
                       std::to_string(worker_list.front()));
    wsummary.setHeader({"Policy", "writeFrac", "locked (M/s)",
                        "striped (M/s)", "scaling (x)"});
    for (const WriteScaling &s : write_scalings)
        wsummary.addRow({s.policy, TextTable::num(s.writeFrac, 2),
                         TextTable::num(s.lockedOps / 1e6, 2),
                         TextTable::num(s.stripedOps / 1e6, 2),
                         TextTable::num(s.ratio, 2)});
    wsummary.print(std::cout);

    const std::string json_path =
        args.has("json") ? args.jsonPath() : "BENCH_contention.json";
    std::ofstream os(json_path);
    if (os) {
        os << "{\n  \"ops\": " << ops << ",\n  \"keys\": " << keys
           << ",\n  \"tagScanIsa\": \"" << simd::tagScanIsa()
           << "\",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            os << "    {\"policy\": \"" << c.policy
               << "\", \"hitpath\": \"" << hitPathName(c.path)
               << "\", \"workers\": " << c.workers
               << ", \"wallSec\": " << c.wallSec
               << ", \"hits\": " << c.hits
               << ", \"hitsPerSec\": " << c.hitsPerSec
               << ", \"seqlockHits\": " << c.totals.seqlockHits
               << ", \"seqlockRetries\": " << c.totals.seqlockRetries
               << ", \"lockedFallbacks\": " << c.totals.lockedFallbacks
               << ", \"coalescedMisses\": " << c.totals.coalescedMisses
               << "}" << (i + 1 < cells.size() ? ",\n" : "\n");
        }
        os << "  ],\n  \"scaling\": {";
        for (std::size_t i = 0; i < scalings.size(); ++i)
            os << "\"" << scalings[i].policy
               << "\": " << scalings[i].ratio
               << (i + 1 < scalings.size() ? ", " : "");
        os << "},\n  \"stripes\": " << resolved_stripes
           << ",\n  \"writeCells\": [\n";
        for (std::size_t i = 0; i < write_cells.size(); ++i) {
            const WriteCell &c = write_cells[i];
            os << "    {\"policy\": \"" << c.policy
               << "\", \"config\": \"" << c.config
               << "\", \"stripes\": " << c.stripes
               << ", \"writeFrac\": " << c.writeFrac
               << ", \"workers\": " << c.workers
               << ", \"wallSec\": " << c.wallSec
               << ", \"opsPerSec\": " << c.opsPerSec
               << ", \"lockedFallbacks\": " << c.totals.lockedFallbacks
               << ", \"logFullFallbacks\": "
               << c.totals.logFullFallbacks
               << ", \"coalescedMisses\": " << c.totals.coalescedMisses
               << "}" << (i + 1 < write_cells.size() ? ",\n" : "\n");
        }
        os << "  ],\n  \"writeScaling\": {";
        for (std::size_t i = 0; i < write_scalings.size(); ++i)
            os << "\"" << write_scalings[i].policy << "@"
               << TextTable::num(write_scalings[i].writeFrac, 2)
               << "\": " << write_scalings[i].ratio
               << (i + 1 < write_scalings.size() ? ", " : "");
        os << "},\n  \"minScaling\": " << min_scaling
           << ",\n  \"minWriteScaling\": " << min_write_scaling
           << "\n}\n";
        std::cerr << "### wrote JSON to " << json_path << "\n";
    } else {
        std::cerr << "### cannot write " << json_path << "\n";
    }

    bool failed = false;
    if (min_scaling > 0.0) {
        for (const Scaling &s : scalings) {
            if (s.ratio < min_scaling) {
                std::cerr << "### FAIL: " << s.policy << " scaling "
                          << TextTable::num(s.ratio, 2) << "x < "
                          << TextTable::num(min_scaling, 2)
                          << "x required\n";
                failed = true;
            }
        }
        if (!failed)
            std::cout << "### scaling gate passed (>= "
                      << TextTable::num(min_scaling, 2)
                      << "x on every policy)\n";
    }
    if (min_write_scaling > 0.0) {
        bool write_failed = false;
        for (const WriteScaling &s : write_scalings) {
            if (s.ratio < min_write_scaling) {
                std::cerr << "### FAIL: " << s.policy
                          << " write scaling at wf="
                          << TextTable::num(s.writeFrac, 2) << " "
                          << TextTable::num(s.ratio, 2) << "x < "
                          << TextTable::num(min_write_scaling, 2)
                          << "x required\n";
                write_failed = true;
            }
        }
        if (!write_failed)
            std::cout << "### write-scaling gate passed (>= "
                      << TextTable::num(min_write_scaling, 2)
                      << "x on every policy)\n";
        failed = failed || write_failed;
    }
    return failed ? 1 : 0;
}
