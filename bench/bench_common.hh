/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses: run a
 * (workload, safety model, profile) combination — or a whole sweep of
 * them across the parallel sweep engine — compute overheads against
 * the unsafe baseline, and print aligned rows.
 */

#ifndef BCTRL_BENCH_BENCH_COMMON_HH
#define BCTRL_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "config/system_builder.hh"
#include "sim/sweep.hh"

namespace bctrl {
namespace bench {

/** Run one configuration of one workload on a fresh system. */
RunResult runOne(const std::string &workload, SafetyModel safety,
                 GpuProfile profile, const SystemConfig &base = {});

/**
 * Build the cross product of profiles × workloads × safety models (in
 * that nesting order, safety innermost) as sweep points over @p base.
 * The index of (p, w, s) is
 *   ((p * |workloads|) + w) * |safeties| + s.
 */
std::vector<SweepPoint>
matrixPoints(const std::vector<std::string> &workloads,
             const std::vector<SafetyModel> &safeties,
             const std::vector<GpuProfile> &profiles,
             const SystemConfig &base = {});

/**
 * Worker count for bench sweeps: $BCTRL_SWEEP_JOBS if set, otherwise
 * one per hardware thread.
 */
unsigned sweepJobs();

/**
 * Run @p points through the parallel sweep engine. @p jobs == 0 uses
 * sweepJobs(). Outcomes come back ordered by sweep index regardless of
 * completion order, and are bit-identical to a serial (jobs = 1) run.
 */
std::vector<SweepOutcome> sweep(const std::vector<SweepPoint> &points,
                                unsigned jobs = 0);

/**
 * Geometric mean of (1 + overhead) values, returned as overhead.
 * An empty vector yields 0.0 (not NaN); non-finite entries and
 * overheads at or below -100% (whose log1p is undefined) are skipped
 * with a warning rather than poisoning the mean.
 */
double geomeanOverhead(const std::vector<double> &overheads);

/** Print a banner for a table/figure. */
void banner(const std::string &title, const std::string &paper_ref);

/**
 * Format an overhead as a percentage string. Locale-independent: the
 * decimal separator is always '.', whatever LC_NUMERIC says.
 */
std::string pct(double overhead);

/** Locale-independent fixed-point formatting ('.' separator always). */
std::string formatFixed(double v, int decimals);

/**
 * Locale-independent shortest-round-trip formatting, suitable for JSON
 * number output (non-finite values degrade to "0").
 */
std::string formatDouble(double v);

/**
 * Where a measurement was taken, as a JSON object for BENCH_*.json
 * files: hardware threads, CPU model (Linux /proc/cpuinfo), compiler,
 * and CMake build type.
 */
std::string hostProvenanceJson();

} // namespace bench
} // namespace bctrl

#endif // BCTRL_BENCH_BENCH_COMMON_HH
