/**
 * @file
 * Tests for the parallel sweep engine: serial (jobs = 1) and parallel
 * (jobs = 4) sweeps over the same points must produce byte-identical
 * stats dumps and RunResults, outcomes must come back in sweep-index
 * order, and the queue's LambdaEvent pool must keep allocations near
 * the in-flight peak rather than the scheduled count.
 */

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"

using namespace bctrl;

namespace {

/** Micro workloads x two safety models, small enough for a unit test. */
std::vector<SweepPoint>
identityPoints()
{
    std::vector<SweepPoint> points;
    for (const char *wl : {"uniform", "strided"}) {
        for (SafetyModel safety :
             {SafetyModel::atsOnlyIommu, SafetyModel::borderControlBcc}) {
            SweepPoint p;
            p.workload = wl;
            p.config.safety = safety;
            p.config.profile = GpuProfile::moderatelyThreaded;
            points.push_back(std::move(p));
        }
    }
    return points;
}

std::vector<SweepOutcome>
sweepWithJobs(const std::vector<SweepPoint> &points, unsigned jobs,
              bool capture_stats = true)
{
    SweepOptions opts;
    opts.jobs = jobs;
    opts.captureStats = capture_stats;
    return runSweep(points, opts);
}

} // namespace

TEST(Sweep, EmptySweepYieldsNoOutcomes)
{
    EXPECT_TRUE(runSweep({}).empty());
    EXPECT_TRUE(sweepWithJobs({}, 4).empty());
}

TEST(Sweep, OutcomesComeBackInSweepIndexOrder)
{
    const std::vector<SweepPoint> points = identityPoints();
    const std::vector<SweepOutcome> outcomes =
        sweepWithJobs(points, 4, false);
    ASSERT_EQ(outcomes.size(), points.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].index, i);
        EXPECT_EQ(outcomes[i].workload, points[i].workload);
        EXPECT_GT(outcomes[i].hostEvents, 0u);
        EXPECT_GT(outcomes[i].result.runtimeTicks, 0u);
    }
}

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    setLogVerbose(false);
    const std::vector<SweepPoint> points = identityPoints();
    const std::vector<SweepOutcome> serial = sweepWithJobs(points, 1);
    const std::vector<SweepOutcome> parallel = sweepWithJobs(points, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("sweep index " + std::to_string(i));
        const SweepOutcome &s = serial[i];
        const SweepOutcome &p = parallel[i];
        EXPECT_EQ(s.result.runtimeTicks, p.result.runtimeTicks);
        EXPECT_EQ(s.result.gpuCycles, p.result.gpuCycles);
        EXPECT_EQ(s.result.memOps, p.result.memOps);
        EXPECT_EQ(s.result.borderRequests, p.result.borderRequests);
        EXPECT_EQ(s.result.bccHits, p.result.bccHits);
        EXPECT_EQ(s.result.bccMisses, p.result.bccMisses);
        EXPECT_EQ(s.result.violations, p.result.violations);
        EXPECT_EQ(s.result.pageFaults, p.result.pageFaults);
        EXPECT_EQ(s.result.l1Hits, p.result.l1Hits);
        EXPECT_EQ(s.result.l1Misses, p.result.l1Misses);
        // Every point runs the accelerator's L1s, so the counters are
        // live and the comparisons above are not 0 == 0.
        EXPECT_GT(s.result.l1Hits + s.result.l1Misses, 0u);
        EXPECT_EQ(s.hostEvents, p.hostEvents);
        // The full per-component stats dump is the strongest identity
        // check: every counter in the system, byte for byte.
        ASSERT_FALSE(s.statsDump.empty());
        EXPECT_EQ(s.statsDump, p.statsDump);
    }
}

TEST(Sweep, RepeatedParallelSweepsAreIdentical)
{
    setLogVerbose(false);
    std::vector<SweepPoint> points;
    SweepPoint p;
    p.workload = "strided";
    p.config.safety = SafetyModel::borderControlNoBcc;
    p.config.profile = GpuProfile::moderatelyThreaded;
    points.push_back(p);
    points.push_back(p);
    points.push_back(p);

    const std::vector<SweepOutcome> first = sweepWithJobs(points, 3);
    const std::vector<SweepOutcome> second = sweepWithJobs(points, 3);
    ASSERT_EQ(first.size(), 3u);
    // Identical points produce identical results, both across slots of
    // one sweep and across whole sweeps.
    for (const SweepOutcome &o : first) {
        EXPECT_EQ(o.statsDump, first[0].statsDump);
        EXPECT_EQ(o.result.runtimeTicks, first[0].result.runtimeTicks);
    }
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(second[i].statsDump, first[i].statsDump);
}

TEST(Sweep, PrepareHookRunsPerPointBeforeTheWorkload)
{
    std::vector<std::size_t> seen(3, static_cast<std::size_t>(-1));
    std::vector<SweepPoint> points;
    for (std::size_t i = 0; i < 3; ++i) {
        SweepPoint p;
        p.workload = "strided";
        p.config.safety = SafetyModel::atsOnlyIommu;
        p.config.profile = GpuProfile::moderatelyThreaded;
        // Each hook writes only its own slot: race-free by index.
        p.prepare = [&seen](System &, std::size_t index) {
            seen[index] = index;
        };
        points.push_back(std::move(p));
    }
    sweepWithJobs(points, 3, false);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Sweep, EffectiveJobsResolvesZeroToHardwareConcurrency)
{
    SweepOptions opts;
    opts.jobs = 0;
    EXPECT_GE(SweepEngine(opts).effectiveJobs(), 1u);
    opts.jobs = 7;
    EXPECT_EQ(SweepEngine(opts).effectiveJobs(), 7u);
}

// ---------------------------------------------------------------------
// Satellite: geomean hardening and locale-independent formatting.

TEST(BenchHelpers, GeomeanOfEmptyVectorIsZeroNotNaN)
{
    const double g = bench::geomeanOverhead({});
    EXPECT_EQ(g, 0.0);
    EXPECT_FALSE(std::isnan(g));
}

TEST(BenchHelpers, GeomeanSkipsNonFiniteAndImpossibleEntries)
{
    setLogVerbose(false);
    const double clean = bench::geomeanOverhead({0.10, 0.20});
    // NaN, infinity, and <= -100% entries must not poison the mean.
    const double dirty = bench::geomeanOverhead(
        {0.10, std::nan(""), -1.5, std::numeric_limits<double>::infinity(),
         0.20});
    EXPECT_TRUE(std::isfinite(dirty));
    EXPECT_DOUBLE_EQ(clean, dirty);
}

TEST(BenchHelpers, PctIsLocaleIndependent)
{
    EXPECT_EQ(bench::pct(0.1234), "12.34%");
    EXPECT_EQ(bench::pct(0.0), "0.00%");
    // A comma-decimal locale must not leak into the output. Not every
    // image ships de_DE; skip the locale flip if unavailable.
    const char *applied = std::setlocale(LC_NUMERIC, "de_DE.UTF-8");
    if (!applied)
        applied = std::setlocale(LC_NUMERIC, "de_DE");
    EXPECT_EQ(bench::pct(0.1234), "12.34%");
    EXPECT_EQ(bench::formatFixed(3.5, 1), "3.5");
    EXPECT_EQ(bench::formatDouble(2.25), "2.25");
    if (applied)
        std::setlocale(LC_NUMERIC, "C");
}

// ---------------------------------------------------------------------
// Satellite: the LambdaEvent free-list pool.

TEST(LambdaPool, SequentialLambdasReuseOneAllocation)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int i = 0; i < 1000; ++i) {
        eq.scheduleLambda([&fired] { ++fired; }, eq.curTick() + 1);
        eq.run();
    }
    EXPECT_EQ(fired, 1000u);
    // One lambda in flight at a time: the pool should satisfy all but
    // the first schedule without touching the heap.
    EXPECT_EQ(eq.lambdaAllocations(), 1u);
    EXPECT_EQ(eq.lambdaPoolSize(), 1u);
}

TEST(LambdaPool, ChainedLambdasStayNearThePeak)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    // Each lambda schedules the next from inside process(): the
    // running event is not yet recycled when the next one is armed.
    std::function<void(std::uint64_t)> chain =
        [&](std::uint64_t remaining) {
            ++fired;
            if (remaining > 0)
                eq.scheduleLambda([&chain, remaining] {
                    chain(remaining - 1);
                }, eq.curTick() + 1);
        };
    eq.scheduleLambda([&chain] { chain(999); }, 1);
    eq.run();
    EXPECT_EQ(fired, 1000u);
    EXPECT_LE(eq.lambdaAllocations(), 2u);
}

TEST(LambdaPool, PoolIsBoundedPastTheHighWaterMark)
{
    EventQueue eq;
    constexpr std::uint64_t batch = 5000; // > the 4096 pool cap
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < batch; ++i)
        eq.scheduleLambda([&fired] { ++fired; }, 10);
    eq.run();
    EXPECT_EQ(fired, batch);
    EXPECT_EQ(eq.lambdaAllocations(), batch);
    EXPECT_LE(eq.lambdaPoolSize(), 4096u);

    // A second burst draws down the pool before allocating anew: only
    // the overflow past the pooled 4096 costs fresh allocations.
    for (std::uint64_t i = 0; i < batch; ++i)
        eq.scheduleLambda([&fired] { ++fired; }, eq.curTick() + 10);
    eq.run();
    EXPECT_EQ(fired, 2 * batch);
    EXPECT_EQ(eq.lambdaAllocations(), batch + (batch - 4096));
}

TEST(LambdaPool, SquashedLambdaEntriesAreRecycledNotLeaked)
{
    // Every queue-owned lambda fires exactly once and then goes back
    // to the pool: run workload-sized bursts and check the pool
    // accounting stays consistent.
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 100; ++i)
            eq.scheduleLambda([&fired] { ++fired; },
                              eq.curTick() + 1 + i % 7);
        eq.run();
    }
    EXPECT_EQ(fired, 400u);
    // Pool holds everything that was ever simultaneously in flight.
    EXPECT_EQ(eq.lambdaPoolSize(), eq.lambdaAllocations());
    EXPECT_LE(eq.lambdaAllocations(), 100u);
}
