/**
 * @file
 * bctrl_sweep: parallel sweep driver for the Border Control simulator.
 *
 * Runs a (workload × safety model × GPU profile) cross product through
 * the worker-pool sweep engine (src/sim/sweep.hh) and writes a JSON
 * report — per-run GPU cycles, overhead vs. the unsafe baseline, host
 * wall time, and host events/second — to BENCH_sweep.json. Results are
 * deterministic and bit-identical to a serial run whatever --jobs is.
 *
 * Examples:
 *
 *   bctrl_sweep                                # full Fig 4 sweep
 *   bctrl_sweep --jobs 4 --compare-serial      # measure the speedup
 *   bctrl_sweep --micro --jobs 2               # quick smoke (CI)
 *   bctrl_sweep --workloads bfs,lud --safety bc-bcc,ats-only
 *   bctrl_sweep --micro --trace=BCC,ProtTable --trace-out=t.json
 *   bctrl_sweep --micro --profile --stats-json=stats.json
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"
#include "sim/trace.hh"

using namespace bctrl;
using namespace bctrl::bench;

namespace {

const char *
profileToken(GpuProfile p)
{
    return p == GpuProfile::highlyThreaded ? "highly" : "moderate";
}

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --jobs N           worker threads (default: all hardware "
        "threads,\n"
        "                     or $BCTRL_SWEEP_JOBS)\n"
        "  --workloads LIST   comma-separated workloads (default: the\n"
        "                     seven Rodinia proxies)\n"
        "  --safety LIST      comma-separated of ats-only, full-iommu,\n"
        "                     capi, bc-nobcc, bc-bcc (default: all "
        "five)\n"
        "  --profiles LIST    comma-separated of highly, moderate\n"
        "                     (default: both)\n"
        "  --scale N          workload scale factor (default: 1)\n"
        "  --seed N           workload RNG seed (default: 1)\n"
        "  --micro            shortcut: --workloads "
        "uniform,stream,strided\n"
        "  --compare-serial   also run serially and report the "
        "speedup\n"
        "  --out FILE         JSON report path (default: "
        "BENCH_sweep.json)\n"
        "  --trace FLAGS      enable tracing: comma-separated of BCC,\n"
        "                     ProtTable, Coherence, TLB, DRAM, Cache,\n"
        "                     PacketLife, or all\n"
        "  --trace-out FILE   Chrome-trace output (default: "
        "trace.json);\n"
        "                     load in ui.perfetto.dev or "
        "chrome://tracing\n"
        "  --stats-json FILE  write every run's full stats as JSON\n"
        "  --profile          attribute host wall time per component\n"
        "                     (adds a \"profile\" block to the "
        "report)\n"
        "  --quiet            suppress the per-run progress table\n"
        "  --help             this text\n",
        prog);
}

struct Totals {
    double hostSeconds = 0;
    std::uint64_t hostEvents = 0;
};

Totals
totalsOf(const std::vector<SweepOutcome> &outcomes, double wall_seconds)
{
    Totals t;
    t.hostSeconds = wall_seconds;
    for (const SweepOutcome &o : outcomes)
        t.hostEvents += o.hostEvents;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogVerbose(false);

    unsigned jobs = 0; // 0 = sweepJobs() (env or hardware)
    std::vector<std::string> workloads = rodiniaWorkloadNames();
    std::vector<SafetyModel> safeties(std::begin(allSafetyModels),
                                      std::end(allSafetyModels));
    std::vector<GpuProfile> profiles = {GpuProfile::highlyThreaded,
                                        GpuProfile::moderatelyThreaded};
    SystemConfig base;
    std::string out_path = "BENCH_sweep.json";
    std::string trace_flags;
    std::string trace_out = "trace.json";
    std::string stats_json_path;
    bool profile = false;
    bool compare_serial = false;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // The newer options also accept --opt=value in one token.
        std::string inline_value;
        bool has_inline_value = false;
        if (const std::size_t eq = arg.find('=');
            eq != std::string::npos && arg.rfind("--", 0) == 0) {
            inline_value = arg.substr(eq + 1);
            has_inline_value = true;
            arg = arg.substr(0, eq);
        }
        auto next = [&]() -> std::string {
            if (has_inline_value)
                return inline_value;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 0));
        } else if (arg == "--workloads") {
            workloads = splitList(next());
        } else if (arg == "--safety") {
            safeties.clear();
            for (const std::string &tok : splitList(next())) {
                SafetyModel model;
                if (parseSafetyModel(tok, model)) {
                    safeties.push_back(model);
                } else {
                    std::fprintf(stderr, "unknown safety model '%s'\n",
                                 tok.c_str());
                    return 2;
                }
            }
        } else if (arg == "--profiles") {
            profiles.clear();
            for (const std::string &tok : splitList(next())) {
                if (tok == "highly") {
                    profiles.push_back(GpuProfile::highlyThreaded);
                } else if (tok == "moderate") {
                    profiles.push_back(GpuProfile::moderatelyThreaded);
                } else {
                    std::fprintf(stderr, "unknown profile '%s'\n",
                                 tok.c_str());
                    return 2;
                }
            }
        } else if (arg == "--scale") {
            base.workloadScale =
                std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--seed") {
            base.seed = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--micro") {
            workloads = {"uniform", "stream", "strided"};
        } else if (arg == "--compare-serial") {
            compare_serial = true;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--trace") {
            trace_flags = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (workloads.empty() || safeties.empty() || profiles.empty()) {
        std::fprintf(stderr, "empty sweep: need at least one workload, "
                             "safety model, and profile\n");
        return 2;
    }

    if (!trace_flags.empty()) {
        std::string err;
        if (!trace::parseFlags(trace_flags, base.traceMask, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
    }
    base.hostProfile = profile;

    const std::vector<SweepPoint> points =
        matrixPoints(workloads, safeties, profiles, base);
    const unsigned effective_jobs = jobs != 0 ? jobs : sweepJobs();

    SweepOptions sweep_opts;
    sweep_opts.jobs = effective_jobs;
    sweep_opts.captureStatsJson = !stats_json_path.empty();
    // The bit-identity check below compares the sim-only stats dump of
    // every run, not just the headline RunResult counters.
    sweep_opts.captureSimStats = compare_serial;

    std::fprintf(stderr, "sweep: %zu runs on %u worker(s)\n",
                 points.size(), effective_jobs);

    // Host-side wall-clock measurement (never feeds simulated state).
    // bclint:allow(nondeterminism)
    const auto now = []() {
        // bclint:allow(nondeterminism)
        return std::chrono::steady_clock::now();
    };

    const auto par_start = now();
    const std::vector<SweepOutcome> outcomes =
        runSweep(points, sweep_opts);
    const std::chrono::duration<double> par_elapsed = now() - par_start;
    const Totals par = totalsOf(outcomes, par_elapsed.count());

    double serial_seconds = 0;
    double speedup = 0;
    if (compare_serial) {
        SweepOptions serial_opts;
        serial_opts.jobs = 1;
        serial_opts.captureSimStats = true;
        const auto ser_start = now();
        const std::vector<SweepOutcome> serial_outcomes =
            runSweep(points, serial_opts);
        const std::chrono::duration<double> ser_elapsed =
            now() - ser_start;
        serial_seconds = ser_elapsed.count();
        speedup = par.hostSeconds > 0
                      ? serial_seconds / par.hostSeconds
                      : 0.0;
        // Cross-check determinism: the parallel sweep must agree with
        // the serial one bit for bit — every RunResult counter and the
        // entire simulated-state stats dump, so a divergence anywhere
        // in any component fails the run even when the headline
        // numbers happen to agree.
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const RunResult &a = outcomes[i].result;
            const RunResult &b = serial_outcomes[i].result;
            if (a.runtimeTicks != b.runtimeTicks ||
                a.gpuCycles != b.gpuCycles || a.memOps != b.memOps ||
                a.borderRequests != b.borderRequests ||
                a.bccHits != b.bccHits || a.bccMisses != b.bccMisses ||
                a.violations != b.violations ||
                a.downgrades != b.downgrades ||
                a.pageFaults != b.pageFaults ||
                a.l1Hits != b.l1Hits || a.l1Misses != b.l1Misses ||
                a.translations != b.translations ||
                a.pageWalks != b.pageWalks ||
                outcomes[i].hostEvents != serial_outcomes[i].hostEvents) {
                std::fprintf(stderr,
                             "determinism violation at run %zu: "
                             "parallel and serial sweeps disagree\n",
                             i);
                return 1;
            }
            if (outcomes[i].simStatsDump !=
                serial_outcomes[i].simStatsDump) {
                std::fprintf(stderr,
                             "determinism violation at run %zu: "
                             "sim-stats dumps differ between the "
                             "parallel and serial sweeps\n",
                             i);
                return 1;
            }
        }
    }

    // Per-(profile, workload) baseline for overhead columns, when the
    // unsafe baseline is part of the sweep.
    std::size_t baseline_slot = safeties.size();
    for (std::size_t s = 0; s < safeties.size(); ++s)
        if (safeties[s] == SafetyModel::atsOnlyIommu)
            baseline_slot = s;

    if (!quiet) {
        std::printf("%-11s %-10s %-8s %14s %10s %10s %14s\n",
                    "workload", "safety", "profile", "gpuCycles",
                    "overhead", "host(s)", "events/s");
        for (const SweepOutcome &o : outcomes) {
            const std::size_t s = o.index % safeties.size();
            const std::size_t group = o.index - s;
            std::string overhead = "-";
            if (baseline_slot < safeties.size() &&
                s != baseline_slot) {
                const double base_cycles =
                    outcomes[group + baseline_slot].result.gpuCycles;
                if (base_cycles > 0)
                    overhead =
                        pct(o.result.gpuCycles / base_cycles - 1.0);
            }
            std::printf("%-11s %-10s %-8s %14.0f %10s %10.3f %14.0f\n",
                        o.workload.c_str(),
                        safetyModelToken(o.result.safety),
                        profileToken(o.result.profile),
                        o.result.gpuCycles, overhead.c_str(),
                        o.hostSeconds, o.hostEventsPerSec);
        }
        std::printf("\ntotal: %.3f s wall, %llu events, %.0f "
                    "events/s aggregate\n",
                    par.hostSeconds,
                    (unsigned long long)par.hostEvents,
                    par.hostSeconds > 0
                        ? static_cast<double>(par.hostEvents) /
                              par.hostSeconds
                        : 0.0);
        if (compare_serial)
            std::printf("serial: %.3f s wall -> speedup %.2fx with "
                        "%u worker(s)\n",
                        serial_seconds, speedup, effective_jobs);
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"bctrl-sweep-v2\",\n");
    std::fprintf(f, "  \"host\": %s,\n", hostProvenanceJson().c_str());
    std::fprintf(f, "  \"jobs\": %u,\n", effective_jobs);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepOutcome &o = outcomes[i];
        const std::size_t s = i % safeties.size();
        const std::size_t group = i - s;
        std::string overhead = "null";
        if (baseline_slot < safeties.size() && s != baseline_slot) {
            const double base_cycles =
                outcomes[group + baseline_slot].result.gpuCycles;
            if (base_cycles > 0)
                overhead = formatDouble(
                    o.result.gpuCycles / base_cycles - 1.0);
        }
        std::fprintf(
            f,
            "    {\"workload\": \"%s\", \"safety\": \"%s\", "
            "\"profile\": \"%s\", \"gpuCycles\": %s, "
            "\"runtimeTicks\": %llu, \"overheadVsBaseline\": %s, "
            "\"hostSeconds\": %s, \"hostEvents\": %llu, "
            "\"hostEventsPerSec\": %s}%s\n",
            o.workload.c_str(), safetyModelToken(o.result.safety),
            profileToken(o.result.profile),
            formatDouble(o.result.gpuCycles).c_str(),
            (unsigned long long)o.result.runtimeTicks, overhead.c_str(),
            formatDouble(o.hostSeconds).c_str(),
            (unsigned long long)o.hostEvents,
            formatDouble(o.hostEventsPerSec).c_str(),
            i + 1 < outcomes.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    // Geomean overheads per (profile, safety) when a baseline exists.
    std::fprintf(f, "  \"geomeanOverheads\": [");
    bool first_geomean = true;
    if (baseline_slot < safeties.size()) {
        for (std::size_t p = 0; p < profiles.size(); ++p) {
            for (std::size_t s = 0; s < safeties.size(); ++s) {
                if (s == baseline_slot)
                    continue;
                std::vector<double> overheads;
                for (std::size_t w = 0; w < workloads.size(); ++w) {
                    const std::size_t group =
                        (p * workloads.size() + w) * safeties.size();
                    const double base_cycles =
                        outcomes[group + baseline_slot]
                            .result.gpuCycles;
                    if (base_cycles > 0)
                        overheads.push_back(
                            outcomes[group + s].result.gpuCycles /
                                base_cycles -
                            1.0);
                }
                std::fprintf(
                    f, "%s\n    {\"profile\": \"%s\", \"safety\": "
                       "\"%s\", \"overhead\": %s}",
                    first_geomean ? "" : ",",
                    profileToken(profiles[p]),
                    safetyModelToken(safeties[s]),
                    formatDouble(geomeanOverhead(overheads)).c_str());
                first_geomean = false;
            }
        }
    }
    std::fprintf(f, "\n  ],\n");

    // Aggregate allocation profile across the whole sweep: how
    // allocation-free the hot request path was (one System per run).
    {
        std::uint64_t pool_allocs = 0, lambda_allocs = 0;
        std::uint64_t max_peak = 0;
        double mru_sum = 0;
        for (const SweepOutcome &o : outcomes) {
            pool_allocs += o.result.packetPoolAllocs;
            max_peak = std::max(max_peak, o.result.packetPoolPeak);
            lambda_allocs += o.result.lambdaPoolAllocs;
            mru_sum += o.result.backingStoreMruHitRate;
        }
        std::fprintf(
            f,
            "  \"allocationProfile\": {\"packetPoolAllocs\": %llu, "
            "\"maxPacketPoolPeak\": %llu, \"lambdaPoolAllocs\": %llu, "
            "\"meanBackingStoreMruHitRate\": %s},\n",
            (unsigned long long)pool_allocs,
            (unsigned long long)max_peak,
            (unsigned long long)lambda_allocs,
            formatDouble(mru_sum /
                         static_cast<double>(outcomes.size()))
                .c_str());
    }

    // Host profile: where the simulator's own CPU time went, summed
    // across runs. Slot times are inclusive (scopes nest), so they are
    // read against the eventLoop total, not summed to it.
    if (profile) {
        std::fprintf(f, "  \"profile\": {\"slots\": [");
        for (std::size_t s = 0; s < HostProfiler::numSlots; ++s) {
            double seconds = 0;
            std::uint64_t calls = 0;
            for (const SweepOutcome &o : outcomes) {
                if (s < o.profileSeconds.size()) {
                    seconds += o.profileSeconds[s];
                    calls += o.profileCalls[s];
                }
            }
            std::fprintf(
                f,
                "%s\n    {\"name\": \"%s\", \"seconds\": %s, "
                "\"calls\": %llu}",
                s == 0 ? "" : ",",
                HostProfiler::slotName(
                    static_cast<HostProfiler::Slot>(s)),
                formatDouble(seconds).c_str(),
                (unsigned long long)calls);
        }
        double loop_seconds = 0;
        std::uint64_t loop_calls = 0;
        for (const SweepOutcome &o : outcomes) {
            if (!o.profileSeconds.empty()) {
                loop_seconds += o.profileSeconds[0];
                loop_calls += o.profileCalls[0];
            }
        }
        std::fprintf(
            f, "\n  ], \"eventsPerSec\": %s},\n",
            formatDouble(loop_seconds > 0
                             ? static_cast<double>(loop_calls) /
                                   loop_seconds
                             : 0.0)
                .c_str());
    }

    std::fprintf(
        f,
        "  \"parallel\": {\"hostSeconds\": %s, \"hostEvents\": %llu, "
        "\"hostEventsPerSec\": %s}",
        formatDouble(par.hostSeconds).c_str(),
        (unsigned long long)par.hostEvents,
        formatDouble(par.hostSeconds > 0
                         ? static_cast<double>(par.hostEvents) /
                               par.hostSeconds
                         : 0.0)
            .c_str());
    if (compare_serial) {
        std::fprintf(f,
                     ",\n  \"serial\": {\"hostSeconds\": %s},\n"
                     "  \"speedup\": %s",
                     formatDouble(serial_seconds).c_str(),
                     formatDouble(speedup).c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);

    std::fprintf(stderr, "wrote %s\n", out_path.c_str());

    // Merged Chrome-trace document: one process (pid = run index + 1)
    // per run, ready for ui.perfetto.dev / chrome://tracing.
    if (base.traceMask != 0) {
        std::FILE *tf = std::fopen(trace_out.c_str(), "w");
        if (tf == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
            return 1;
        }
        std::fprintf(tf, "{\"traceEvents\":[");
        bool first = true;
        for (const SweepOutcome &o : outcomes) {
            if (o.traceJson.empty())
                continue;
            std::fprintf(tf, "%s%s", first ? "" : ",",
                         o.traceJson.c_str());
            first = false;
        }
        std::fprintf(tf, "]}\n");
        std::fclose(tf);
        std::fprintf(stderr, "wrote %s\n", trace_out.c_str());
    }

    if (!stats_json_path.empty()) {
        std::FILE *sf = std::fopen(stats_json_path.c_str(), "w");
        if (sf == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        // bctrl-stats-v2: v1 plus a "recoveries" array per run — one
        // {begin, end, paddr, wasWrite, traceId, kind} object per
        // completed quarantine episode (System::dumpRecoveriesJson),
        // so post-processing can correlate OS recovery windows with
        // the stats without re-running the sweep.
        std::fprintf(sf, "{\n  \"schema\": \"bctrl-stats-v2\",\n"
                         "  \"runs\": [\n");
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const SweepOutcome &o = outcomes[i];
            std::fprintf(
                sf,
                "    {\"workload\": \"%s\", \"safety\": \"%s\", "
                "\"profile\": \"%s\", \"stats\": %s, "
                "\"recoveries\": %s}%s\n",
                o.workload.c_str(), safetyModelToken(o.result.safety),
                profileToken(o.result.profile),
                o.statsJson.empty() ? "{}" : o.statsJson.c_str(),
                o.recoveriesJson.empty() ? "[]"
                                         : o.recoveriesJson.c_str(),
                i + 1 < outcomes.size() ? "," : "");
        }
        std::fprintf(sf, "  ]\n}\n");
        std::fclose(sf);
        std::fprintf(stderr, "wrote %s\n", stats_json_path.c_str());
    }
    return 0;
}
