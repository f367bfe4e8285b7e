#include "bench_common.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "sim/logging.hh"

namespace bctrl {
namespace bench {

RunResult
runOne(const std::string &workload, SafetyModel safety,
       GpuProfile profile, const SystemConfig &base)
{
    setLogVerbose(false);
    SystemConfig cfg = base;
    cfg.safety = safety;
    cfg.profile = profile;
    System sys(cfg);
    return sys.run(workload);
}

std::vector<SweepPoint>
matrixPoints(const std::vector<std::string> &workloads,
             const std::vector<SafetyModel> &safeties,
             const std::vector<GpuProfile> &profiles,
             const SystemConfig &base)
{
    std::vector<SweepPoint> points;
    points.reserve(workloads.size() * safeties.size() * profiles.size());
    for (GpuProfile profile : profiles) {
        for (const std::string &wl : workloads) {
            for (SafetyModel safety : safeties) {
                SweepPoint p;
                p.workload = wl;
                p.config = base;
                p.config.safety = safety;
                p.config.profile = profile;
                points.push_back(std::move(p));
            }
        }
    }
    return points;
}

unsigned
sweepJobs()
{
    if (const char *env = std::getenv("BCTRL_SWEEP_JOBS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

std::vector<SweepOutcome>
sweep(const std::vector<SweepPoint> &points, unsigned jobs)
{
    setLogVerbose(false);
    SweepOptions opts;
    opts.jobs = jobs != 0 ? jobs : sweepJobs();
    return runSweep(points, opts);
}

double
geomeanOverhead(const std::vector<double> &overheads)
{
    double log_sum = 0.0;
    std::size_t used = 0;
    for (double o : overheads) {
        if (!std::isfinite(o) || o <= -1.0) {
            warn("geomeanOverhead: skipping degenerate overhead %f", o);
            continue;
        }
        log_sum += std::log1p(o);
        ++used;
    }
    if (used == 0)
        return 0.0;
    return std::expm1(log_sum / static_cast<double>(used));
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n%s\n", title.c_str());
    for (std::size_t i = 0; i < title.size(); ++i)
        std::printf("=");
    std::printf("\n(reproduces %s of Olson et al., \"Border Control: "
                "Sandboxing Accelerators\", MICRO-48, 2015)\n\n",
                paper_ref.c_str());
}

std::string
formatFixed(double v, int decimals)
{
    if (!std::isfinite(v))
        return std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf");
    char buf[64];
    // std::to_chars never consults the locale, unlike snprintf("%f").
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed, decimals);
    if (res.ec != std::errc())
        return "0";
    return std::string(buf, res.ptr);
}

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "0"; // JSON has no representation for inf/nan
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    if (res.ec != std::errc())
        return "0";
    return std::string(buf, res.ptr);
}

namespace {

/** @p s as a JSON string literal (quotes, backslashes, controls). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

} // namespace

std::string
hostProvenanceJson()
{
#ifdef BCTRL_BUILD_TYPE
    const std::string build_type = BCTRL_BUILD_TYPE;
#else
    const std::string build_type;
#endif
#if defined(__clang__)
    const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = __VERSION__;
#endif
    return "{\"cores\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"compiler\": " + jsonString(compiler) +
           ", \"build_type\": " +
           jsonString(build_type.empty() ? "unknown" : build_type) + "}";
}

std::string
pct(double overhead)
{
    return formatFixed(100.0 * overhead, 2) + "%";
}

} // namespace bench
} // namespace bctrl
