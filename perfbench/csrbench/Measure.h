/**
 * @file
 * Measurement helpers of the libcsr benchmark: raw-sample
 * percentiles, per-thread CPU accounting read from /proc, an
 * in-memory span recorder with Chrome trace export, and the report
 * that prints every metric by name and unit.
 *
 * None of these reuse util/Stats: its Histogram is linear with a
 * fixed upper bound and clamps (ROADMAP "True numbers"), and the
 * benchmark must report what it measured, or "n/a".
 */

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point t0, Clock::time_point t1);

/** Median of @p values (nullopt when empty). */
std::optional<double> median(std::vector<double> values);

/** @p num / @p den, or nullopt when nothing was measured (den <= 0). */
std::optional<double> ratio(double num, double den);

/** Geometric mean of positive @p values (nullopt when empty). */
std::optional<double> geomean(const std::vector<double> &values);

/**
 * Raw latency samples.  Percentiles are exact order statistics of
 * everything recorded: nothing is bucketed, so nothing is clamped.
 */
class Samples
{
  public:
    void
    add(double v)
    {
        values_.push_back(v);
        sorted_ = false;
    }
    void reserve(std::size_t n) { values_.reserve(n); }
    std::size_t count() const { return values_.size(); }
    void append(const Samples &other);

    /**
     * The @p q quantile (0 < q < 1, nearest rank), or nullopt when
     * fewer than 10 samples lie above it -- a tail that thin is not
     * a measurement.  Sorts the samples in place on first use.
     */
    std::optional<double> percentile(double q) const;

  private:
    mutable std::vector<double> values_;
    mutable bool sorted_ = true;
};

/** Kernel-side CPU accounting of one thread, from /proc. */
struct ThreadCpu
{
    std::uint64_t cpuNs = 0;     ///< schedstat: time on CPU
    std::uint64_t userTicks = 0; ///< stat: utime (clock ticks)
    std::uint64_t sysTicks = 0;  ///< stat: stime (clock ticks)
    std::uint64_t vcsw = 0;      ///< status: voluntary_ctxt_switches
};

/** Thread id of the caller. */
pid_t currentTid();

/** Every thread of this process (/proc/self/task). */
std::vector<pid_t> listThreads();

/** @throws std::runtime_error when the thread's files are gone. */
ThreadCpu readThreadCpu(pid_t tid);

/**
 * CPU used by a set of threads between two snapshots.  schedstat
 * gives the total in nanoseconds; stat's tick-granular user/system
 * split apportions it.
 */
struct CpuUse
{
    double cpuNs = 0.0;
    double userNs = 0.0;
    double sysNs = 0.0;
    double vcsw = 0.0;

    CpuUse &operator+=(const CpuUse &o);
};

/** Snapshot of a fixed set of threads; diff() reads them again. */
class CpuProbe
{
  public:
    explicit CpuProbe(std::vector<pid_t> tids);
    /** Use since construction. */
    CpuUse diff() const;

  private:
    std::vector<pid_t> tids_;
    std::vector<ThreadCpu> start_;
};

/** Peak resident set size of this process, MiB (VmHWM). */
double peakRssMb();

/**
 * Spans around the calls the benchmark makes into each layer.  Each
 * thread opens and closes its own spans (properly nested); a closed
 * span adds its duration to its name's total and its parent's child
 * time, so self time = total - child time per name.  Spans are kept
 * in memory for the Chrome trace written at exit.  Per-call spans
 * (one per get() or wire request) are summed by their thread and
 * added in bulk, and stored for the trace one in kKeepEvery, so the
 * file stays small and no lock is taken per call.
 *
 * telemetry::Tracer is not used: switching it on also switches on
 * every CSR_TRACE_* site inside the libraries (an instant per L2 miss,
 * per eviction), which would time the library's own instrumentation
 * rather than the calls into each layer.
 */
class SpanRecorder
{
  public:
    static constexpr std::uint64_t kKeepEvery = 1024;

    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span on the calling thread (no-op when disabled). */
    void begin(const char *name);
    /** Close the calling thread's innermost span. */
    void end();
    /**
     * @p seconds of calls named @p name, timed by the caller and
     * summed on its own thread, made inside the calling thread's
     * innermost open span.
     */
    void addCalls(const char *name, double seconds);
    /** Store one call span for the Chrome trace (totals untouched:
     *  addCalls() counts it). */
    void keepCall(const char *name, Clock::time_point t0,
                  Clock::time_point t1);

    /** Seconds inside spans of @p name, and its self time. */
    double totalSeconds(const std::string &name) const;
    double selfSeconds(const std::string &name) const;
    std::vector<std::string> names() const;

    /** Chrome trace-event JSON ("X" complete events). */
    void writeChromeTrace(const std::string &path) const;

  private:
    struct Open
    {
        const char *name;
        Clock::time_point start;
        double childSec;
    };
    struct Event
    {
        const char *name;
        pid_t tid;
        double startUs;
        double durUs;
    };
    struct Totals
    {
        double total = 0.0;
        double child = 0.0;
    };

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::map<pid_t, std::vector<Open>> stacks_;
    std::map<std::string, Totals> totals_;
    std::vector<Event> events_;
};

/** RAII span. */
class Span
{
  public:
    Span(SpanRecorder &rec, const char *name) : rec_(rec)
    {
        rec_.begin(name);
    }
    ~Span() { rec_.end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder &rec_;
};

/**
 * Every metric one run produced, by name.  A metric that was not
 * measured is stored as nullopt and printed "n/a".
 */
class Report
{
  public:
    void set(const std::string &name, const std::string &unit,
             std::optional<double> value);
    /** A percentile together with its sample count (name.n). */
    void percentile(const std::string &name, const std::string &unit,
                    const Samples &samples, double q);

    /** Human-readable table, one metric a line. */
    void print(std::FILE *out) const;
    /** The "metrics" JSON object: measured metrics only. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string unit;
        std::optional<double> value;
    };
    std::vector<std::string> order_;
    std::map<std::string, Entry> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
