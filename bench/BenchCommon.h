/**
 * @file
 * Shared plumbing for the serving and replay benches.
 *
 * Every bench parses the shared flag grammar through benchArgs():
 * --scale test|small|full selects the problem scale ("test"
 * seconds/sanity, "small" the calibrated default, "full" the longest
 * runs), and the common flags (--jobs, --seed, --json, --metrics)
 * mean the same thing as in csrsim.  Benches print the banner of
 * sim/Reproduction.h; the paper's tables themselves are regenerated
 * by `csrsim reproduce`.
 */

#ifndef CSR_BENCH_BENCHCOMMON_H
#define CSR_BENCH_BENCHCOMMON_H

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "robust/Errors.h"
#include "sim/Reproduction.h"
#include "telemetry/MetricRegistry.h"
#include "trace/Workload.h"
#include "util/CliArgs.h"

namespace csr::bench
{

/**
 * Parse a bench binary's command line: the common flags plus --scale
 * and any bench-specific keys in @p extra_known.  --help prints the
 * shared usage and exits; a bad flag or scale prints its diagnostic
 * and exits with the ConfigError code instead of throwing through
 * main.
 */
inline CliArgs
benchArgs(int argc, char **argv,
          const std::vector<std::string> &extra_known = {})
{
    try {
        const CliArgs args(argc, argv);
        if (args.helpRequested()) {
            std::cout << "usage: " << argv[0]
                      << " [--scale test|small|full] [--jobs N]\n"
                         "  plus the common flags: --seed N "
                         "--json FILE --metrics FILE\n";
            std::exit(exitcode::kOk);
        }
        std::vector<std::string> known = {"scale"};
        known.insert(known.end(), extra_known.begin(),
                     extra_known.end());
        args.requireKnown(known);
        parseScale(args.get("scale", "small")); // validate it here
        return args;
    } catch (const Error &e) {
        std::cerr << e.kind() << ": " << e.what() << "\n";
        std::exit(e.exitCode());
    }
}

/** Write @p registry as unified metrics JSON when @p path is set
 *  (the benches' --metrics flag), with a stderr note. */
inline void
maybeWriteMetrics(const MetricRegistry &registry, const std::string &path)
{
    if (path.empty() || registry.empty())
        return;
    registry.writeJson(path);
    std::cerr << "### wrote metrics to " << path << "\n";
}

} // namespace csr::bench

#endif // CSR_BENCH_BENCHCOMMON_H
