/**
 * @file
 * Parallel sweep engine: runs many independent (workload, config)
 * simulations across a worker pool, one fully isolated System (and
 * therefore EventQueue, Random, stats) per run.
 *
 * Determinism guarantees:
 *  - every point is simulated on a private System built from its own
 *    SystemConfig copy; no simulation state is shared between workers;
 *  - results are keyed by sweep index (the order points were given),
 *    never by completion order;
 *  - a parallel sweep produces bit-identical RunResults and stats
 *    dumps to a serial sweep (jobs = 1) of the same points, because
 *    host-side scheduling can only affect *when* a run happens, not
 *    what it computes.
 *
 * Host wall time and host events/second are measured per run for
 * throughput reporting; they are the only nondeterministic outputs and
 * are kept out of RunResult.
 */

#ifndef BCTRL_SIM_SWEEP_HH
#define BCTRL_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "config/system_builder.hh"

namespace bctrl {

/** One point of a sweep: a workload on a complete configuration. */
struct SweepPoint {
    std::string workload;
    SystemConfig config;
    /**
     * Optional hook run on the freshly constructed System before the
     * workload starts (attack injection, trace hooks, ...). It runs on
     * the worker's thread; it must only touch this run's System and
     * state private to this point (e.g. a per-index slot).
     */
    std::function<void(System &, std::size_t index)> prepare;
};

/** The measurements of one sweep point. */
struct SweepOutcome {
    std::size_t index = 0;    ///< position in the input vector
    std::string workload;
    RunResult result;
    /** Host events executed by this run's queue (deterministic). */
    std::uint64_t hostEvents = 0;
    /** Host wall-clock seconds this run took (nondeterministic). */
    double hostSeconds = 0;
    /** Host events per second (nondeterministic). */
    double hostEventsPerSec = 0;
    /** Full per-component stats dump (only with captureStats). */
    std::string statsDump;
    /** Flat JSON stats object (only with captureStatsJson). */
    std::string statsJson;
    /**
     * RecoveryRecord stream as a JSON array (only with
     * captureStatsJson): one {begin, end, paddr, wasWrite, traceId,
     * kind} object per quarantine episode the OS model completed
     * (System::dumpRecoveriesJson). "[]" when nothing was recovered.
     */
    std::string recoveriesJson;
    /**
     * Simulated-state-only stats dump (only with captureSimStats):
     * component counters and extra stats, no host-side blocks. This is
     * the dump that must match byte for byte between any two runs of
     * the same point, e.g. a serial and a parallel sweep
     * (System::dumpSimStats).
     */
    std::string simStatsDump;
    /**
     * Chrome-trace event fragment for this run (only when the point's
     * config has a nonzero traceMask): the comma-separated event
     * objects with pid = index + 1, ready to merge into one document.
     */
    std::string traceJson;
    /**
     * Host profile (only when the point's config enables hostProfile):
     * wall seconds and call counts indexed by HostProfiler::Slot.
     */
    std::vector<double> profileSeconds;
    std::vector<std::uint64_t> profileCalls;
};

struct SweepOptions {
    /** Worker threads; 0 means one per hardware thread. */
    unsigned jobs = 0;
    /** Capture each run's System::dumpStats() into the outcome. */
    bool captureStats = false;
    /** Capture each run's System::dumpStatsJson() into the outcome. */
    bool captureStatsJson = false;
    /** Capture each run's System::dumpSimStats() into the outcome
     * (the bit-identity comparison surface). */
    bool captureSimStats = false;
};

class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});

    /**
     * Run every point and return outcomes ordered by sweep index.
     * With jobs == 1 the points run inline on the calling thread (the
     * serial reference path); otherwise a pool of min(jobs, points)
     * threads drains an atomic work counter.
     */
    std::vector<SweepOutcome> run(const std::vector<SweepPoint> &points);

    /** Simulate a single point (used by both serial and pool paths). */
    static SweepOutcome runPoint(const SweepPoint &point,
                                 std::size_t index, bool capture_stats,
                                 bool capture_stats_json = false,
                                 bool capture_sim_stats = false);

    /** The worker count this engine resolves to. */
    unsigned effectiveJobs() const;

  private:
    SweepOptions options_;
};

/** Convenience wrapper: one-shot sweep. */
std::vector<SweepOutcome> runSweep(const std::vector<SweepPoint> &points,
                                   SweepOptions options = {});

} // namespace bctrl

#endif // BCTRL_SIM_SWEEP_HH
