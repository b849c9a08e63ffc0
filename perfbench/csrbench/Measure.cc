#include "Measure.h"
#include "Workloads.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench
{

double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::optional<double>
median(std::vector<double> values)
{
    if (values.empty())
        return std::nullopt;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
ratio(double num, double den)
{
    if (den <= 0.0)
        return std::nullopt;
    return num / den;
}

std::optional<double>
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return std::nullopt;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
Samples::append(const Samples &other)
{
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    sorted_ = false;
}

std::optional<double>
Samples::percentile(double q) const
{
    const std::size_t n = values_.size();
    if (n == 0)
        return std::nullopt;
    // Nearest rank: the smallest sample with at least q*n at or below.
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < 10)
        return std::nullopt;
    if (!sorted_) {
        std::sort(values_.begin(), values_.end());
        sorted_ = true;
    }
    return values_[rank - 1];
}

pid_t
currentTid()
{
    return static_cast<pid_t>(::syscall(SYS_gettid));
}

std::vector<pid_t>
listThreads()
{
    std::vector<pid_t> tids;
    DIR *dir = ::opendir("/proc/self/task");
    if (!dir)
        throw std::runtime_error("cannot open /proc/self/task");
    while (const dirent *ent = ::readdir(dir)) {
        if (ent->d_name[0] >= '0' && ent->d_name[0] <= '9')
            tids.push_back(static_cast<pid_t>(std::stol(ent->d_name)));
    }
    ::closedir(dir);
    std::sort(tids.begin(), tids.end());
    return tids;
}

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

ThreadCpu
readThreadCpu(pid_t tid)
{
    const std::string dir = "/proc/self/task/" + std::to_string(tid);
    ThreadCpu cpu;
    {
        std::istringstream in(readFile(dir + "/schedstat"));
        in >> cpu.cpuNs;
    }
    {
        // Fields after the parenthesised command name: state is field
        // 3, utime 14 and stime 15.
        const std::string stat = readFile(dir + "/stat");
        std::istringstream in(stat.substr(stat.rfind(')') + 2));
        std::string field;
        for (int i = 3; i <= 15 && in >> field; ++i) {
            if (i == 14)
                cpu.userTicks = std::stoull(field);
            if (i == 15)
                cpu.sysTicks = std::stoull(field);
        }
    }
    {
        std::istringstream in(readFile(dir + "/status"));
        std::string line;
        const std::string key = "voluntary_ctxt_switches:";
        while (std::getline(in, line)) {
            if (line.rfind(key, 0) == 0)
                cpu.vcsw = std::stoull(line.substr(key.size()));
        }
    }
    return cpu;
}

CpuUse &
CpuUse::operator+=(const CpuUse &o)
{
    cpuNs += o.cpuNs;
    userNs += o.userNs;
    sysNs += o.sysNs;
    vcsw += o.vcsw;
    return *this;
}

CpuProbe::CpuProbe(std::vector<pid_t> tids) : tids_(std::move(tids))
{
    for (pid_t tid : tids_)
        start_.push_back(readThreadCpu(tid));
}

CpuUse
CpuProbe::diff() const
{
    CpuUse use;
    for (std::size_t i = 0; i < tids_.size(); ++i) {
        const ThreadCpu now = readThreadCpu(tids_[i]);
        const double cpu = static_cast<double>(now.cpuNs - start_[i].cpuNs);
        const double user =
            static_cast<double>(now.userTicks - start_[i].userTicks);
        const double sys =
            static_cast<double>(now.sysTicks - start_[i].sysTicks);
        use.cpuNs += cpu;
        if (user + sys > 0.0) {
            use.userNs += cpu * user / (user + sys);
            use.sysNs += cpu * sys / (user + sys);
        }
        use.vcsw += static_cast<double>(now.vcsw - start_[i].vcsw);
    }
    return use;
}

double
peakRssMb()
{
    std::istringstream in(readFile("/proc/self/status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
SpanRecorder::begin(const char *name)
{
    if (!enabled_)
        return;
    const pid_t tid = currentTid();
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    stacks_[tid].push_back({name, now, 0.0});
}

void
SpanRecorder::end()
{
    if (!enabled_)
        return;
    const pid_t tid = currentTid();
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Open> &stack = stacks_[tid];
    const Open open = stack.back();
    stack.pop_back();
    const double sec = secondsBetween(open.start, now);
    Totals &t = totals_[open.name];
    t.total += sec;
    t.child += open.childSec;
    if (!stack.empty())
        stack.back().childSec += sec;
    events_.push_back({open.name, tid,
                       secondsBetween(epoch_, open.start) * 1e6,
                       sec * 1e6});
}

void
SpanRecorder::addCalls(const char *name, double seconds)
{
    if (!enabled_)
        return;
    const pid_t tid = currentTid();
    std::lock_guard<std::mutex> lock(mutex_);
    totals_[name].total += seconds;
    std::vector<Open> &stack = stacks_[tid];
    if (!stack.empty())
        stack.back().childSec += seconds;
}

void
SpanRecorder::keepCall(const char *name, Clock::time_point t0,
                       Clock::time_point t1)
{
    if (!enabled_)
        return;
    const pid_t tid = currentTid();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back({name, tid, secondsBetween(epoch_, t0) * 1e6,
                       secondsBetween(t0, t1) * 1e6});
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.total;
}

double
SpanRecorder::selfSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0
                               : it->second.total - it->second.child;
}

std::vector<std::string>
SpanRecorder::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (const auto &[name, t] : totals_)
        out.push_back(name);
    return out;
}

void
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"traceEvents\":[\n");
    const pid_t pid = ::getpid();
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}%s\n",
                     e.name, static_cast<int>(pid),
                     static_cast<int>(e.tid), e.startUs, e.durUs,
                     i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "],\"displayTimeUnit\":\"ns\"}\n");
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot finish " + path);
}

void
Report::set(const std::string &name, const std::string &unit,
            std::optional<double> value)
{
    if (!entries_.count(name))
        order_.push_back(name);
    entries_[name] = {unit, value};
}

void
Report::percentile(const std::string &name, const std::string &unit,
                   const Samples &samples, double q)
{
    set(name, unit, samples.percentile(q));
    set(name + ".n", "count", static_cast<double>(samples.count()));
}

void
Report::print(std::FILE *out) const
{
    for (const std::string &name : order_) {
        const Entry &e = entries_.at(name);
        if (e.value)
            std::fprintf(out, "  %-36s %18.6g %s\n", name.c_str(),
                         *e.value, e.unit.c_str());
        else
            std::fprintf(out, "  %-36s %18s %s\n", name.c_str(), "n/a",
                         e.unit.c_str());
    }
}

std::string
Report::json() const
{
    std::string out = "{";
    bool first = true;
    for (const std::string &name : order_) {
        const Entry &e = entries_.at(name);
        if (!e.value || !std::isfinite(*e.value))
            continue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", *e.value);
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
        first = false;
    }
    return out + "}";
}

void
reportPolicyCounters(Report &report,
                     const std::map<std::string, std::uint64_t> &summed)
{
    const std::pair<const char *, const char *> counters[] = {
        {"cache.reservation_start", "csl.reservation.start"},
        {"cache.reservation_success", "csl.reservation.success"},
        {"cache.etd_hits", "dcl.etd.hit"},
        {"cache.acl_disable", "acl.disable"},
    };
    for (const auto &[metric, stat] : counters) {
        const auto it = summed.find(stat);
        report.set(metric, "count",
                   static_cast<double>(it == summed.end() ? 0 : it->second));
    }
}

std::string
metricName(std::string policy)
{
    for (char &c : policy)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return policy;
}

} // namespace perfbench
