/**
 * @file
 * Allocation-ceiling checks: once a System's pools are warm, running
 * another kernel must mint zero new packets or lambda events from the
 * heap. This is the enforcement side of the zero-allocation request
 * path (inline callbacks never allocate: an oversized capture does not
 * compile); the same counters feed the "system.allocprof" stats block
 * and the sweep report's allocationProfile.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "config/system_builder.hh"

using namespace bctrl;

namespace {

SystemConfig
smallConfig(SafetyModel safety)
{
    SystemConfig cfg;
    cfg.safety = safety;
    cfg.profile = GpuProfile::moderatelyThreaded;
    cfg.workloadScale = 1;
    return cfg;
}

struct PoolSnapshot {
    std::uint64_t packetAllocs;
    std::uint64_t lambdaAllocs;
};

PoolSnapshot
snapshot(System &sys)
{
    return PoolSnapshot{
        sys.packetPool().heapAllocations(),
        sys.eventQueue().lambdaAllocations(),
    };
}

} // namespace

TEST(AllocationProfile, WarmRunsAllocateNothing)
{
    for (SafetyModel safety : {SafetyModel::borderControlBcc,
                               SafetyModel::atsOnlyIommu,
                               SafetyModel::fullIommu}) {
        System sys(smallConfig(safety));
        // Re-run one process's kernel so the steady state is exact: a
        // fresh process each run would shift the physical page layout
        // and with it the in-flight peak by a handful of packets.
        auto workload = makeWorkload("uniform", 1, 1);
        ASSERT_NE(workload, nullptr);
        Process &proc = sys.kernel().createProcess();
        workload->setup(proc);

        // Two warm-up kernels size both pools to their in-flight peak
        // (the second covers demand-paging cold effects of the first).
        sys.run(*workload, proc);
        sys.run(*workload, proc);
        const PoolSnapshot warm = snapshot(sys);

        RunResult r = sys.run(*workload, proc);
        const PoolSnapshot after = snapshot(sys);

        EXPECT_GT(r.memOps, 0u);
        EXPECT_EQ(after.packetAllocs - warm.packetAllocs, 0u)
            << "steady-state packet heap allocations under "
            << safetyModelName(safety);
        EXPECT_EQ(after.lambdaAllocs - warm.lambdaAllocs, 0u)
            << "steady-state lambda heap allocations under "
            << safetyModelName(safety);
    }
}

TEST(AllocationProfile, RunResultCarriesPoolCounters)
{
    System sys(smallConfig(SafetyModel::borderControlBcc));
    RunResult r = sys.run("uniform");
    EXPECT_GT(r.packetPoolAllocs, 0u);
    EXPECT_GT(r.packetPoolPeak, 0u);
    EXPECT_GE(r.packetPoolAllocs, r.packetPoolPeak);
    EXPECT_GT(r.lambdaPoolAllocs, 0u);
    EXPECT_GT(r.backingStoreMruHitRate, 0.0);
    EXPECT_LE(r.backingStoreMruHitRate, 1.0);
}

TEST(AllocationProfile, StatsDumpIncludesAllocProfBlock)
{
    System sys(smallConfig(SafetyModel::borderControlBcc));
    sys.run("uniform");
    std::ostringstream os;
    sys.dumpStats(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("system.allocprof.packetPoolAllocs"),
              std::string::npos);
    EXPECT_NE(text.find("system.allocprof.lambdaPoolAllocs"),
              std::string::npos);
    EXPECT_NE(text.find("system.allocprof.backingStoreMruHitRate"),
              std::string::npos);
}
