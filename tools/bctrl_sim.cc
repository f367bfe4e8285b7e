/**
 * @file
 * bctrl-sim: command-line driver for the Border Control simulator.
 *
 * Runs one workload on one configuration and reports the run metrics
 * (and optionally every component's statistics). Examples:
 *
 *   bctrl-sim --workload bfs
 *   bctrl-sim --workload lud --safety full-iommu --profile moderate
 *   bctrl-sim --workload hotspot --downgrades 1000 --stats
 *   bctrl-sim --workload uniform --safety ats-only --scale 4 --seed 7
 *   bctrl-sim --list
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <fstream>

#include "config/system_builder.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

using namespace bctrl;

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --workload NAME     workload to run (default: pathfinder)\n"
        "  --safety MODEL      ats-only | full-iommu | capi |\n"
        "                      bc-nobcc | bc-bcc (default: bc-bcc)\n"
        "  --profile P         highly | moderate (default: highly)\n"
        "  --scale N           workload scale factor (default: 1)\n"
        "  --seed N            workload RNG seed (default: 1)\n"
        "  --downgrades R      permission downgrades per second\n"
        "  --selective-flush   use the per-page downgrade flush\n"
        "  --serialize-checks  ablation: serialize BC read checks\n"
        "  --bcc-entries N     BCC entries (default: 64)\n"
        "  --bcc-pages N       BCC pages per entry (default: 512)\n"
        "  --mem-gb N          physical memory in GB (default: 3)\n"
        "  --stats             dump every component's statistics\n"
        "  --stats-json FILE   write every component's statistics as "
        "JSON\n"
        "  --trace FLAGS       enable tracing: comma-separated of BCC,\n"
        "                      ProtTable, Coherence, TLB, DRAM, Cache,\n"
        "                      PacketLife, or all\n"
        "  --trace-out FILE    Chrome-trace output (default: "
        "trace.json)\n"
        "  --trace-text        write the trace as text, not JSON\n"
        "  --verbose           enable warn/inform output\n"
        "  --list              list available workloads and exit\n"
        "  --help              this text\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg;
    std::string workload = "pathfinder";
    bool dump_stats = false;
    std::string stats_json_path;
    std::string trace_flags;
    std::string trace_out = "trace.json";
    bool trace_text = false;
    setLogVerbose(false);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = next();
        } else if (arg == "--safety") {
            if (!parseSafetyModel(next(), cfg.safety)) {
                std::fprintf(stderr, "unknown safety model\n");
                return 2;
            }
        } else if (arg == "--profile") {
            const std::string p = next();
            if (p == "highly")
                cfg.profile = GpuProfile::highlyThreaded;
            else if (p == "moderate")
                cfg.profile = GpuProfile::moderatelyThreaded;
            else {
                std::fprintf(stderr, "unknown profile\n");
                return 2;
            }
        } else if (arg == "--scale") {
            cfg.workloadScale = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--downgrades") {
            cfg.downgradesPerSecond = std::strtod(next(), nullptr);
        } else if (arg == "--selective-flush") {
            cfg.selectiveFlush = true;
        } else if (arg == "--serialize-checks") {
            cfg.bcSerializeReadChecks = true;
        } else if (arg == "--bcc-entries") {
            cfg.bccEntries =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
        } else if (arg == "--bcc-pages") {
            cfg.bccPagesPerEntry =
                static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
        } else if (arg == "--mem-gb") {
            cfg.physMemBytes =
                std::strtoull(next(), nullptr, 0) * (1ULL << 30);
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--trace") {
            trace_flags = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--trace-text") {
            trace_text = true;
        } else if (arg == "--verbose") {
            setLogVerbose(true);
        } else if (arg == "--list") {
            std::printf("Rodinia proxies:");
            for (const auto &n : rodiniaWorkloadNames())
                std::printf(" %s", n.c_str());
            std::printf("\nmicro: uniform stream strided\n");
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (!trace_flags.empty()) {
        std::string err;
        if (!trace::parseFlags(trace_flags, cfg.traceMask, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 2;
        }
    }

    System system(cfg);
    RunResult r = system.run(workload);

    std::printf("workload             %s (scale %llu, seed %llu)\n",
                r.workload.c_str(),
                (unsigned long long)cfg.workloadScale,
                (unsigned long long)cfg.seed);
    std::printf("configuration        %s, %s GPU\n",
                safetyModelName(r.safety), gpuProfileName(r.profile));
    std::printf("runtime              %.3f ms  (%.0f GPU cycles)\n",
                r.runtimeTicks / 1e9, r.gpuCycles);
    std::printf("memory ops           %llu (%.3f per cycle)\n",
                (unsigned long long)r.memOps,
                r.gpuCycles > 0 ? r.memOps / r.gpuCycles : 0.0);
    std::printf("translations         %llu (%llu walks)\n",
                (unsigned long long)r.translations,
                (unsigned long long)r.pageWalks);
    if (system.borderControl() != nullptr) {
        std::printf("border requests      %llu (%.4f per cycle)\n",
                    (unsigned long long)r.borderRequests,
                    r.borderRequestsPerCycle);
        std::printf("BCC                  %llu hits, %llu misses "
                    "(%.4f%% miss)\n",
                    (unsigned long long)r.bccHits,
                    (unsigned long long)r.bccMisses,
                    100.0 * r.bccMissRatio);
    }
    std::printf("violations blocked   %llu\n",
                (unsigned long long)r.violations);
    std::printf("downgrades           %llu\n",
                (unsigned long long)r.downgrades);
    std::printf("DRAM                 %.2f MB moved, %.1f%% utilized\n",
                r.dramBytes / 1e6, 100.0 * r.dramUtilization);
    if (system.gpu().l2Cache() != nullptr) {
        std::printf("GPU L2               %llu hits, %llu misses\n",
                    (unsigned long long)r.l2Hits,
                    (unsigned long long)r.l2Misses);
    }

    if (dump_stats) {
        std::printf("\n=== component statistics ===\n");
        system.dumpStats(std::cout);
    }
    if (!stats_json_path.empty()) {
        std::ofstream os(stats_json_path);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        system.dumpStatsJson(os);
        os << "\n";
        std::fprintf(stderr, "wrote %s\n", stats_json_path.c_str());
    }
    if (trace::Tracer *tracer = system.tracer()) {
        std::ofstream os(trace_out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
            return 1;
        }
        if (trace_text) {
            tracer->writeText(os);
        } else {
            tracer->writeChromeTrace(
                os, 1,
                workload + " " + safetyModelName(cfg.safety) + " " +
                    gpuProfileName(cfg.profile));
        }
        std::fprintf(stderr, "wrote %s (%zu records)\n",
                     trace_out.c_str(), tracer->size());
    }
    return 0;
}
