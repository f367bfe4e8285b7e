/**
 * @file
 * bctrl_chaos: deterministic chaos campaign for the Border Control
 * simulator.
 *
 * Sweeps (fault plan × seed × safety model) over one workload, with a
 * FaultPlan arming the simulator's injection points (sim/fault.hh) and
 * mid-run attacks fired through the AttackInjector. Each run asserts
 * the safety invariants the paper promises:
 *
 *   - no unsafe access completes under a safe configuration: zero
 *     unblocked attacks and zero poisoned-frame writes reaching DRAM
 *     under full-IOMMU, CAPI-like, and both Border Control configs;
 *   - no hang escapes the watchdog: a run either completes or is
 *     declared hung by the watchdog (only the hang plan may hang, and
 *     a hang implies injected faults);
 *   - the machine drains: the packet pool returns to zero in flight
 *     after every run, chaos or not.
 *
 * Plans:
 *   latency       delays and duplicates everywhere; must complete clean
 *   lossy         dropped ATS responses and shootdown acks; retries recover
 *   corrupt       corrupt-permission / stuck-at translation payloads;
 *                 quarantine-on-violation exercises OS recovery
 *   hang          low-rate request/response drops; the watchdog must catch
 *   spec-leaky    wrong-path speculation with the leaky fill baseline;
 *                 the squashed-state-leak invariant is EXPECTED to fire
 *                 (specLeaks > 0 demonstrates the leak)
 *   spec-defer    speculation under defer-fills; squashed crossings must
 *                 leave zero observable trace (specLeaks == 0)
 *   spec-resident speculation under resident-only; same zero-leak bar
 *   cap-policy    capability-rich border policy (read-once replay and
 *                 per-ASID quota attacks) with quarantine-backed recovery
 *
 * Examples:
 *   bctrl_chaos                          # 16 seeds x 8 plans x 5 configs
 *   bctrl_chaos --seeds 4 --plans lossy,hang --safety bc-bcc,ats-only
 *   bctrl_chaos --plans spec-leaky,cap-policy
 *   bctrl_chaos --workload hotspot --stats-json chaos_stats.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bc/attack.hh"
#include "sim/logging.hh"

using namespace bctrl;

namespace {

/** One chaos plan: how to arm the config for a run. */
struct PlanSpec {
    const char *name;
    bool mayHang; ///< only this plan is allowed to trip the watchdog
    void (*apply)(SystemConfig &cfg);
    /** Speculation is on: assert wrong-path requests were issued. */
    bool specEnabled = false;
    /** Safe fill policy: squashed crossings must leave zero trace. */
    bool expectNoLeaks = false;
    /** Leaky baseline: the leak counters are expected to fire. */
    bool expectLeaks = false;
    /** Fire capability attacks (read-once replay, quota) on BC configs. */
    bool capAttacks = false;
};

constexpr Tick kWatchdogInterval = 50'000'000; // 50 us simulated

void
applyLatency(SystemConfig &cfg)
{
    using namespace fault;
    cfg.faultPlan.rules = {
        Rule{Point::atsResponse, Kind::delay, 0.05, 50'000},
        Rule{Point::dramResponse, Kind::delay, 0.02, 30'000},
        Rule{Point::gpuRequest, Kind::duplicate, 0.01},
        Rule{Point::coherenceMsg, Kind::duplicate, 0.01},
        Rule{Point::dramResponse, Kind::duplicate, 0.01},
    };
    cfg.faultPlan.watchdogInterval = kWatchdogInterval;
}

void
applyLossy(SystemConfig &cfg)
{
    using namespace fault;
    cfg.faultPlan.rules = {
        Rule{Point::atsResponse, Kind::drop, 0.02},
        Rule{Point::shootdownAck, Kind::drop, 0.25},
    };
    cfg.faultPlan.watchdogInterval = kWatchdogInterval;
    // Keep the shootdown protocol hot so dropped acks actually occur.
    cfg.downgradesPerSecond = 500'000.0;
}

void
applyCorrupt(SystemConfig &cfg)
{
    using namespace fault;
    Rule stuck{Point::atsResponse, Kind::stuckAt, 0.02};
    stuck.maxFires = 20;
    cfg.faultPlan.rules = {
        Rule{Point::atsResponse, Kind::corruptPerms, 0.1},
        stuck,
    };
    cfg.faultPlan.watchdogInterval = kWatchdogInterval;
    // Violations from stale/corrupt translations drive the OS-level
    // quarantine & recovery path.
    cfg.quarantineOnViolation = true;
}

void
applyHang(SystemConfig &cfg)
{
    using namespace fault;
    Rule dram{Point::dramResponse, Kind::drop, 0.001};
    dram.maxFires = 4;
    Rule gpu{Point::gpuRequest, Kind::drop, 0.002};
    gpu.maxFires = 4;
    cfg.faultPlan.rules = {dram, gpu};
    cfg.faultPlan.watchdogInterval = 20'000'000;
}

void
applySpecBase(SystemConfig &cfg, SpecFillPolicy policy)
{
    using namespace fault;
    cfg.speculation.enabled = true;
    cfg.speculation.wrongPathRate = 0.3;
    cfg.speculation.fillPolicy = policy;
    // Mild latency chaos on top: committed traffic still sees faults
    // (speculative crossings skip the injection points by design).
    cfg.faultPlan.rules = {
        Rule{Point::atsResponse, Kind::delay, 0.05, 50'000},
        Rule{Point::dramResponse, Kind::delay, 0.02, 30'000},
    };
    cfg.faultPlan.watchdogInterval = kWatchdogInterval;
}

void
applySpecLeaky(SystemConfig &cfg)
{
    applySpecBase(cfg, SpecFillPolicy::leaky);
}

void
applySpecDefer(SystemConfig &cfg)
{
    applySpecBase(cfg, SpecFillPolicy::deferFills);
}

void
applySpecResident(SystemConfig &cfg)
{
    applySpecBase(cfg, SpecFillPolicy::residentOnly);
}

void
applyCapPolicy(SystemConfig &cfg)
{
    cfg.speculation.enabled = true;
    cfg.speculation.wrongPathRate = 0.05;
    cfg.speculation.fillPolicy = SpecFillPolicy::deferFills;
    cfg.capQuotaPages = 4;
    // Capability violations drive the OS quarantine-and-recovery path;
    // each episode lands in the RecoveryRecord stream.
    cfg.quarantineOnViolation = true;
    cfg.faultPlan.watchdogInterval = kWatchdogInterval;
}

constexpr PlanSpec kPlans[] = {
    {"latency", false, applyLatency},
    {"lossy", false, applyLossy},
    {"corrupt", false, applyCorrupt},
    {"hang", true, applyHang},
    {"spec-leaky", false, applySpecLeaky, true, false, true, false},
    {"spec-defer", false, applySpecDefer, true, true, false, false},
    {"spec-resident", false, applySpecResident, true, true, false,
     false},
    {"cap-policy", false, applyCapPolicy, true, true, false, true},
};

const PlanSpec *
findPlan(const std::string &name)
{
    for (const PlanSpec &p : kPlans)
        if (name == p.name)
            return &p;
    return nullptr;
}

bool
isSafeConfig(SafetyModel m)
{
    return m != SafetyModel::atsOnlyIommu;
}

/** Accelerator-side TLBs exist, so corrupt translations can land. */
bool
hasAccelTlb(SafetyModel m)
{
    return m == SafetyModel::atsOnlyIommu ||
           m == SafetyModel::borderControlNoBcc ||
           m == SafetyModel::borderControlBcc;
}

/** A Border Control table exists, so capability policy can bite. */
bool
isBorderControl(SafetyModel m)
{
    return m == SafetyModel::borderControlNoBcc ||
           m == SafetyModel::borderControlBcc;
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

struct RunRecord {
    std::string plan;
    unsigned seedIndex = 0;
    SafetyModel safety{};
    RunResult result;
    std::uint64_t attacksInjected = 0;
    std::uint64_t attacksBlocked = 0;
    std::uint64_t attacksUnblocked = 0;
    std::vector<std::string> violations; ///< invariant failures
    std::string statsJson;
    std::string recoveriesJson; ///< RecoveryRecord stream (JSON array)
};

void
usage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "  --plans LIST       comma-separated of latency, lossy, "
        "corrupt,\n"
        "                     hang, spec-leaky, spec-defer, "
        "spec-resident,\n"
        "                     cap-policy (default: all eight)\n"
        "  --seeds N          fault seeds per (plan, safety) cell "
        "(default: 16)\n"
        "  --safety LIST      comma-separated of ats-only, full-iommu,\n"
        "                     capi, bc-nobcc, bc-bcc (default: all "
        "five)\n"
        "  --workload NAME    workload to run (default: bfs; pick one\n"
        "                     with read-only pages so corrupt-perms "
        "bites)\n"
        "  --scale N          workload scale factor (default: 1)\n"
        "  --profile P        highly | moderate (default: moderate)\n"
        "  --out FILE         JSON report (default: BENCH_chaos.json)\n"
        "  --stats-json FILE  full per-run stats dump (includes the\n"
        "                     RecoveryRecord stream per run)\n"
        "  --quiet            suppress the per-run table\n"
        "  --help             this text\n",
        prog);
}

} // namespace

int
main(int argc, char **argv)
{
    setLogVerbose(false);

    std::vector<const PlanSpec *> plans;
    for (const PlanSpec &p : kPlans)
        plans.push_back(&p);
    std::vector<SafetyModel> safeties(std::begin(allSafetyModels),
                                      std::end(allSafetyModels));
    unsigned seeds = 16;
    std::string workload = "bfs";
    std::uint64_t scale = 1;
    GpuProfile profile = GpuProfile::moderatelyThreaded;
    std::string out_path = "BENCH_chaos.json";
    std::string stats_json_path;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
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
        if (arg == "--plans") {
            plans.clear();
            for (const std::string &tok : splitList(next())) {
                const PlanSpec *p = findPlan(tok);
                if (p == nullptr) {
                    std::fprintf(stderr, "unknown plan '%s'\n",
                                 tok.c_str());
                    return 2;
                }
                plans.push_back(p);
            }
        } else if (arg == "--seeds") {
            seeds = static_cast<unsigned>(
                std::strtoul(next().c_str(), nullptr, 0));
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
        } else if (arg == "--workload") {
            workload = next();
        } else if (arg == "--scale") {
            scale = std::strtoull(next().c_str(), nullptr, 0);
        } else if (arg == "--profile") {
            const std::string tok = next();
            if (tok == "highly") {
                profile = GpuProfile::highlyThreaded;
            } else if (tok == "moderate") {
                profile = GpuProfile::moderatelyThreaded;
            } else {
                std::fprintf(stderr, "unknown profile '%s'\n",
                             tok.c_str());
                return 2;
            }
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--stats-json") {
            stats_json_path = next();
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

    if (plans.empty() || safeties.empty() || seeds == 0) {
        std::fprintf(stderr, "empty campaign: need at least one plan, "
                             "safety model, and seed\n");
        return 2;
    }

    std::vector<RunRecord> records;
    records.reserve(plans.size() * safeties.size() * seeds);
    std::uint64_t invariant_violations = 0;
    std::uint64_t hangs_caught = 0;
    std::uint64_t total_injected = 0;

    std::fprintf(stderr, "chaos: %zu plan(s) x %zu config(s) x %u "
                         "seed(s) on '%s'\n",
                 plans.size(), safeties.size(), seeds, workload.c_str());

    for (const PlanSpec *plan : plans) {
        for (SafetyModel safety : safeties) {
            for (unsigned s = 0; s < seeds; ++s) {
                SystemConfig cfg;
                cfg.safety = safety;
                cfg.profile = profile;
                cfg.workloadScale = scale;
                plan->apply(cfg);
                // Corrupt payloads model the untrusted accelerator-TLB
                // link; the ATS-to-frontend path is trusted-to-trusted
                // on full-IOMMU/CAPI, so only the watchdog stays armed
                // there.
                if (std::strcmp(plan->name, "corrupt") == 0 &&
                    !hasAccelTlb(safety)) {
                    cfg.faultPlan.rules.clear();
                }
                cfg.faultPlan.seed =
                    0x5eedfa0175bcULL ^
                    (static_cast<std::uint64_t>(s + 1) *
                     0x9e3779b97f4a7c15ULL);

                RunRecord rec;
                rec.plan = plan->name;
                rec.seedIndex = s;
                rec.safety = safety;
                {
                    System system(cfg);
                    AttackInjector injector(system);
                    system.addStatGroup(&injector.statGroup());

                    // Mid-run attacks. Translate-at-border front ends
                    // (full-IOMMU, CAPI) only accept virtual requests,
                    // so wild physical packets are impossible by
                    // construction there; forge an unbound ASID
                    // instead. Everywhere else, raw physical accesses
                    // against a frame the OS never granted: the top
                    // page of physical memory.
                    if (hasAccelTlb(safety)) {
                        const Addr target = cfg.physMemBytes - pageSize;
                        injector.scheduleAttackAt(2'000'000,
                                                  AttackKind::wildWrite,
                                                  target);
                        injector.scheduleAttackAt(3'000'000,
                                                  AttackKind::wildRead,
                                                  target);
                    } else {
                        injector.scheduleAttackAt(
                            2'000'000, AttackKind::forgedAsidRead,
                            0x10000000, 77);
                        injector.scheduleAttackAt(
                            3'000'000, AttackKind::forgedAsidRead,
                            0x20000000, 78);
                    }
                    if (plan->specEnabled && hasAccelTlb(safety)) {
                        // A wrong-path wild probe: squashed by
                        // construction, must die quietly under the
                        // safe fill policies.
                        injector.scheduleAttackAt(
                            2'500'000,
                            AttackKind::speculativeWildAccess,
                            cfg.physMemBytes - pageSize);
                    }
                    if (plan->capAttacks && isBorderControl(safety)) {
                        // Capability abuse needs a live Protection
                        // Table; target the top of physical memory,
                        // clear of the workload's frames.
                        injector.scheduleAttackAt(
                            1'500'000, AttackKind::readOnceReplay,
                            cfg.physMemBytes - 2 * pageSize, 7);
                        injector.scheduleAttackAt(
                            1'800'000, AttackKind::quotaExhaustion,
                            cfg.physMemBytes - 16 * pageSize, 9);
                    }

                    rec.result = system.run(workload);
                    rec.attacksInjected = injector.injected();
                    rec.attacksBlocked = injector.blocked();
                    rec.attacksUnblocked = injector.unblocked();

                    // Invariant: the machine drains after every run.
                    if (system.packetPool().inFlight() != 0) {
                        rec.violations.push_back(
                            "packet pool did not drain");
                    }
                    if (!stats_json_path.empty()) {
                        std::ostringstream ss;
                        system.dumpStatsJson(ss);
                        rec.statsJson = ss.str();
                        std::ostringstream rs;
                        system.dumpRecoveriesJson(rs);
                        rec.recoveriesJson = rs.str();
                    }
                }

                // Invariant: no unsafe access completes under a safe
                // configuration.
                if (isSafeConfig(safety)) {
                    if (rec.result.unsafeWrites != 0) {
                        rec.violations.push_back(
                            "poisoned-frame write reached DRAM");
                    }
                    if (rec.attacksUnblocked != 0) {
                        rec.violations.push_back(
                            "attack completed unchecked");
                    }
                }
                // Invariant: only the hang plan may hang, and a hang
                // implies injected faults (the watchdog never fires on
                // a healthy run).
                if (rec.result.hung) {
                    ++hangs_caught;
                    if (!plan->mayHang) {
                        rec.violations.push_back(
                            "watchdog fired on a non-hang plan");
                    }
                    if (rec.result.faultsInjected == 0) {
                        rec.violations.push_back(
                            "hang declared without any injected fault");
                    }
                }
                // Invariant: speculation was actually exercised, and
                // squashed crossings obey the fill policy — zero
                // observable trace under the safe policies, a
                // demonstrable leak under the leaky baseline.
                if (plan->specEnabled && !rec.result.hung) {
                    if (rec.result.specIssued == 0) {
                        rec.violations.push_back(
                            "speculation enabled but no wrong-path "
                            "request was issued");
                    }
                    if (plan->expectNoLeaks &&
                        rec.result.specLeaks != 0) {
                        rec.violations.push_back(
                            "squashed speculation leaked shared state");
                    }
                    if (plan->expectLeaks &&
                        rec.result.specLeaks == 0) {
                        rec.violations.push_back(
                            "leaky baseline left no observable trace");
                    }
                }
                // Invariant: capability attacks on a Border Control
                // config raise capability violations, and none survive
                // (the blanket attacksUnblocked check above covers
                // survival; this checks the policy actually fired).
                if (plan->capAttacks && isBorderControl(safety) &&
                    !rec.result.hung &&
                    rec.result.capViolations == 0) {
                    rec.violations.push_back(
                        "capability attack raised no violation");
                }

                invariant_violations += rec.violations.size();
                total_injected += rec.result.faultsInjected;

                if (!quiet) {
                    std::printf(
                        "%-13s %-10s seed %2u  %-9s inj %5llu rel %4llu "
                        "retry %4llu/%3llu quar %3llu unsafe %llu "
                        "att %llu/%llu spec %llu/%llu leak %llu "
                        "cap %llu%s\n",
                        rec.plan.c_str(), safetyModelToken(safety), s,
                        rec.result.hung ? "HUNG" : "completed",
                        (unsigned long long)rec.result.faultsInjected,
                        (unsigned long long)rec.result.dropsReleased,
                        (unsigned long long)rec.result.atsRetries,
                        (unsigned long long)rec.result.shootdownRetries,
                        (unsigned long long)rec.result.quarantines,
                        (unsigned long long)rec.result.unsafeWrites,
                        (unsigned long long)rec.attacksBlocked,
                        (unsigned long long)rec.attacksInjected,
                        (unsigned long long)rec.result.specSquashed,
                        (unsigned long long)rec.result.specIssued,
                        (unsigned long long)rec.result.specLeaks,
                        (unsigned long long)rec.result.capViolations,
                        rec.violations.empty() ? ""
                                               : "  ** INVARIANT **");
                    for (const std::string &v : rec.violations)
                        std::printf("    invariant violated: %s\n",
                                    v.c_str());
                }
                records.push_back(std::move(rec));
            }
        }
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"bctrl-chaos-v2\",\n");
    std::fprintf(f, "  \"workload\": \"%s\",\n", workload.c_str());
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < records.size(); ++i) {
        const RunRecord &r = records[i];
        std::fprintf(
            f,
            "    {\"plan\": \"%s\", \"seed\": %u, \"safety\": \"%s\", "
            "\"hung\": %s, \"runtimeTicks\": %llu, "
            "\"faultsInjected\": %llu, \"dropsReleased\": %llu, "
            "\"atsRetries\": %llu, \"shootdownRetries\": %llu, "
            "\"quarantines\": %llu, \"kills\": %llu, "
            "\"unsafeWrites\": %llu, \"violationsBlocked\": %llu, "
            "\"attacksInjected\": %llu, \"attacksBlocked\": %llu, "
            "\"attacksUnblocked\": %llu, \"specIssued\": %llu, "
            "\"specSquashed\": %llu, \"specDeferred\": %llu, "
            "\"specLeaks\": %llu, \"capViolations\": %llu, "
            "\"invariantViolations\": %zu}%s\n",
            r.plan.c_str(), r.seedIndex, safetyModelToken(r.safety),
            r.result.hung ? "true" : "false",
            (unsigned long long)r.result.runtimeTicks,
            (unsigned long long)r.result.faultsInjected,
            (unsigned long long)r.result.dropsReleased,
            (unsigned long long)r.result.atsRetries,
            (unsigned long long)r.result.shootdownRetries,
            (unsigned long long)r.result.quarantines,
            (unsigned long long)r.result.kills,
            (unsigned long long)r.result.unsafeWrites,
            (unsigned long long)r.result.violations,
            (unsigned long long)r.attacksInjected,
            (unsigned long long)r.attacksBlocked,
            (unsigned long long)r.attacksUnblocked,
            (unsigned long long)r.result.specIssued,
            (unsigned long long)r.result.specSquashed,
            (unsigned long long)r.result.specDeferred,
            (unsigned long long)r.result.specLeaks,
            (unsigned long long)r.result.capViolations,
            r.violations.size(), i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"summary\": {\"runs\": %zu, \"faultsInjected\": "
                 "%llu, \"hangsCaught\": %llu, "
                 "\"invariantViolations\": %llu}\n}\n",
                 records.size(), (unsigned long long)total_injected,
                 (unsigned long long)hangs_caught,
                 (unsigned long long)invariant_violations);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());

    if (!stats_json_path.empty()) {
        std::FILE *sf = std::fopen(stats_json_path.c_str(), "w");
        if (sf == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        // Schema v2: each run gains a "recoveries" array — the
        // kernel's quarantine-and-recovery episodes, in order, each
        // {begin, end, paddr, wasWrite, traceId, kind} with kind one
        // of perms | noShare | readOnceReplay | quotaExceeded.
        std::fprintf(sf, "{\n  \"schema\": \"bctrl-chaos-stats-v2\",\n"
                         "  \"runs\": [\n");
        for (std::size_t i = 0; i < records.size(); ++i) {
            const RunRecord &r = records[i];
            std::fprintf(
                sf,
                "    {\"plan\": \"%s\", \"seed\": %u, \"safety\": "
                "\"%s\", \"stats\": %s, \"recoveries\": %s}%s\n",
                r.plan.c_str(), r.seedIndex, safetyModelToken(r.safety),
                r.statsJson.empty() ? "{}" : r.statsJson.c_str(),
                r.recoveriesJson.empty() ? "[]"
                                         : r.recoveriesJson.c_str(),
                i + 1 < records.size() ? "," : "");
        }
        std::fprintf(sf, "  ]\n}\n");
        std::fclose(sf);
        std::fprintf(stderr, "wrote %s\n", stats_json_path.c_str());
    }

    if (invariant_violations != 0) {
        std::fprintf(stderr,
                     "chaos: %llu invariant violation(s) across %zu "
                     "run(s)\n",
                     (unsigned long long)invariant_violations,
                     records.size());
        return 1;
    }
    std::fprintf(stderr,
                 "chaos: %zu run(s) clean (%llu fault(s) injected, "
                 "%llu hang(s) caught)\n",
                 records.size(), (unsigned long long)total_injected,
                 (unsigned long long)hangs_caught);
    return 0;
}
