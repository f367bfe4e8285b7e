/**
 * @file
 * Self-test of the benchmark's correctness checks: a real simulated
 * point must pass them, and each doctored copy of it must be rejected.
 * Exits nonzero on the first check that fails to tell the two apart.
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "bc/attack.hh"
#include "bench.hh"
#include "config/system_builder.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace bctrl;
using namespace bctrl::perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
}

/** A small attacked hotspot point, recorded like main.cc. */
PointRecord
realPoint(SafetyModel safety, bool control, double downgrades_per_s = 0)
{
    SystemConfig cfg;
    cfg.safety = safety;
    cfg.downgradesPerSecond = downgrades_per_s;
    System sys(cfg);
    AttackInjector injector(sys);
    sys.addStatGroup(&injector.statGroup());
    const Addr target = cfg.physMemBytes - pageSize;
    injector.scheduleAttackAt(2'000'000, AttackKind::wildWrite, target);
    injector.scheduleAttackAt(3'000'000, AttackKind::wildRead, target);
    auto wl = makeWorkload("hotspot", 1, 1);
    Process &proc = sys.kernel().createProcess();
    wl->setup(proc);

    PointRecord rec;
    rec.label = "hotspot";
    rec.result = sys.run(*wl, proc);
    rec.accelTlbs = true;
    std::ostringstream js, ss;
    sys.dumpStatsJson(js);
    rec.stats = parseFlatStats(js.str());
    sys.dumpSimStats(ss);
    rec.simStats = ss.str();
    rec.expectedMemOps = wl->totalMemItems();
    rec.attacked = true;
    rec.control = control;
    rec.attacksPlanned = 2;
    rec.attacksInjected = injector.injected();
    rec.attacksBlocked = injector.blocked();
    rec.attacksUnblocked = injector.unblocked();
    return rec;
}

bool
rejects(const PointRecord &rec)
{
    return !checkPoint(rec, SystemConfig{}.memBandwidthBytesPerSec).empty();
}

} // namespace

int
main()
{
    setLogVerbose(false);

    const PointRecord good = realPoint(SafetyModel::borderControlBcc, false);
    for (const Failure &f :
         checkPoint(good, SystemConfig{}.memBandwidthBytesPerSec))
        std::printf("  %s\n", f.msg.c_str());
    expect(!rejects(good), "a real bc-bcc point passes every check");

    PointRecord doctored = good;
    doctored.result.memOps += 1;
    expect(rejects(doctored), "memOps off by one is rejected");

    doctored = good;
    doctored.attacksBlocked -= 1;
    doctored.attacksUnblocked += 1;
    expect(rejects(doctored), "one unblocked attack is rejected");

    doctored = good;
    doctored.stats["system.mem.bytesRead"] += 64;
    expect(rejects(doctored), "DRAM bytes != bus bytes is rejected");

    doctored = good;
    doctored.attackedFramesMapped = 1;
    expect(rejects(doctored), "a mapped attack frame is rejected");

    for (const char *key : {"system.bus.packets", "system.mem.readReqs",
                            "system.gpu.deniedOps"}) {
        doctored = good;
        doctored.stats.erase(key);
        expect(rejects(doctored),
               (std::string("a dump without ") + key + " is rejected")
                   .c_str());
    }
    doctored = good;
    for (auto it = doctored.stats.begin(); it != doctored.stats.end();) {
        if (it->first.find(".l1tlb.hits") != std::string::npos)
            it = doctored.stats.erase(it);
        else
            ++it;
    }
    expect(rejects(doctored), "a dump without L1-TLB hits is rejected");

    const PointRecord control = realPoint(SafetyModel::atsOnlyIommu, true);
    expect(!rejects(control), "the ATS-only control lets attacks through");
    // The storm's known fault: under back-to-back downgrades Border
    // Control points deny legitimate GPU requests, and the checks say so.
    // Only that fault may be excused; any other failure of a storm point
    // must still make the result incorrect.
    const PointRecord storm =
        realPoint(SafetyModel::borderControlBcc, false, 1e7);
    const std::uint64_t bw = SystemConfig{}.memBandwidthBytesPerSec;
    for (const Failure &f : checkPoint(storm, bw))
        std::printf("  %s\n", f.msg.c_str());
    expect(rejects(storm),
           "legitimate requests denied under a downgrade storm are "
           "rejected");
    expect(onlyKnownDowngradeFault(checkPoint(storm, bw)),
           "the storm point fails only with the known downgrade fault");
    doctored = storm;
    doctored.attacksBlocked -= 1;
    doctored.attacksUnblocked += 1;
    expect(!onlyKnownDowngradeFault(checkPoint(doctored, bw)),
           "an unblocked attack under a downgrade storm is not excused");
    doctored = storm;
    doctored.result.violations = doctored.attacksBlocked + 2;
    expect(!onlyKnownDowngradeFault(checkPoint(doctored, bw)),
           "two extra violations under a downgrade storm are not excused");
    doctored = storm;
    doctored.result.memOps += 1;
    expect(!onlyKnownDowngradeFault(checkPoint(doctored, bw)),
           "memOps off by one under a downgrade storm is not excused");
    doctored = storm;
    doctored.stats["system.mem.bytesRead"] += 64;
    expect(!onlyKnownDowngradeFault(checkPoint(doctored, bw)),
           "DRAM bytes != bus bytes under a downgrade storm is not "
           "excused");
    doctored = storm;
    doctored.simStats += " ";
    expect(!onlyKnownDowngradeFault(checkSameSimStats(storm, doctored)),
           "differing sim stats under a downgrade storm are not excused");
    doctored = control;
    doctored.attacksBlocked += 1;
    doctored.attacksUnblocked -= 1;
    expect(rejects(doctored), "a control that blocks is rejected");

    expect(checkSameSimStats(good, good).empty(),
           "a rerun with identical stats passes");
    doctored = good;
    const std::string key = "system.gpu.memOps";
    const std::size_t at = doctored.simStats.find(key);
    doctored.simStats[doctored.simStats.find_first_of("0123456789",
                                                      at + key.size())] ^=
        1;
    expect(at != std::string::npos &&
               !checkSameSimStats(good, doctored).empty(),
           "a traced run whose sim stats differ is rejected");

    PointRecord ats = control, iommu = control;
    ats.result.safety = SafetyModel::atsOnlyIommu;
    iommu.result.safety = SafetyModel::fullIommu;
    iommu.result.runtimeTicks = ats.result.runtimeTicks + 1;
    expect(checkIommuSlowerThanAts({ats, iommu}).empty(),
           "full-IOMMU slower than ATS-only passes");
    iommu.result.runtimeTicks = ats.result.runtimeTicks;
    expect(!checkIommuSlowerThanAts({ats, iommu}).empty(),
           "full-IOMMU as fast as ATS-only is rejected");

    const StatMap parsed = parseFlatStats(
        "{\"a.b\": 3, \"h\": {\"x\": {\"y\": 1}, \"s\": \"}\"}, \"c\": 2.5}");
    expect(parsed.size() == 2 && stat(parsed, "a.b") == 3 &&
               stat(parsed, "c") == 2.5,
           "flat stats parser skips nested objects");

    std::printf("%s\n", failures == 0 ? "all checks behave" : "FAILED");
    return failures == 0 ? 0 : 1;
}
