/**
 * @file
 * Shared types of the benchmark program: the record one simulated point
 * leaves behind, the correctness checks run on those records, the span
 * log of the traced run, and the per-layer replays.
 *
 * Everything here reaches the simulator through its public API only
 * (System, SweepEngine, Workload, AttackInjector, the stat dumps and
 * the structures' own public functions).
 */

#ifndef BCTRL_PERFBENCH_BENCH_HH
#define BCTRL_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "config/system_config.hh"
#include "vm/page_table.hh"

namespace bctrl::perfbench {

/** Flat numeric view of System::dumpStatsJson (histograms skipped). */
using StatMap = std::map<std::string, double>;

/** Parse the top-level numeric members of a flat stats JSON object. */
StatMap parseFlatStats(const std::string &json);

/** Value of @p key, or 0 when the component is absent. */
double stat(const StatMap &stats, const std::string &key);

/** Sum of every stat named prefix + <anything> + suffix. */
double statSum(const StatMap &stats, const std::string &prefix,
               const std::string &suffix);

/** Number of stats named prefix + <anything> + suffix. */
std::size_t statCount(const StatMap &stats, const std::string &prefix,
                      const std::string &suffix);

/** Everything one simulated point produced that the checks look at. */
struct PointRecord {
    std::string label;
    RunResult result;
    StatMap stats;
    /** System::dumpSimStats text: the bit-identity comparison surface. */
    std::string simStats;
    std::uint64_t hostEvents = 0;
    /** Memory items drained from an independent generator instance. */
    std::uint64_t expectedMemOps = 0;
    /** The accelerator has per-CU L1 TLBs (not full-IOMMU / CAPI). */
    bool accelTlbs = false;

    /** @name Attack outcomes (downgrade-storm points only) */
    /// @{
    bool attacked = false;
    /** ATS-only control point: the attacks are expected to succeed. */
    bool control = false;
    std::uint64_t attacksPlanned = 0;
    std::uint64_t attacksInjected = 0;
    std::uint64_t attacksBlocked = 0;
    std::uint64_t attacksUnblocked = 0;
    /** Attacked frames the process's page table maps (must be 0). */
    std::uint64_t attackedFramesMapped = 0;
    /// @}
};

/** Which check a failure comes from. */
enum class Check {
    hung,
    missingStat,
    memOps,
    statsMemOps,
    busCoherence,
    busDramRequests,
    busDramBytes,
    resultDramBytes,
    l1TlbLookups,
    dramUtilization,
    dramBandwidth,
    attackedFrameMapped,
    attacksInjected,
    controlUnblocked,
    attacksBlocked,
    violations,
    legitDenied,
    simStats,
    iommuOrder,
};

/** One violated check: its tag, a message, and the compared values. */
struct Failure {
    Check check;
    std::string msg;
    double got = 0;
    double want = 0;
};

/**
 * Model properties and independent computations every point must
 * satisfy. @return one failure per violated check (empty = pass).
 */
std::vector<Failure> checkPoint(const PointRecord &rec,
                                std::uint64_t mem_bytes_per_sec);

/**
 * Figure 4 ordering: full-IOMMU is slower in simulated time than the
 * ATS-only baseline on every (workload, profile) pair of the sweep.
 */
std::vector<Failure>
checkIommuSlowerThanAts(const std::vector<PointRecord> &recs);

/**
 * A rerun of the same point (later round, or the traced run) must
 * reproduce the reference's simulated statistics byte for byte.
 */
std::vector<Failure> checkSameSimStats(const PointRecord &reference,
                                       const PointRecord &rerun);

/**
 * True when every failure in @p bad is the downgrade path's known
 * fault (CHANGES.md, FOUND): under back-to-back downgrades a Border
 * Control point denies legitimate GPU requests and may raise one
 * violation beyond its blocked attacks. Any other failure, such as an
 * attack getting through, is not excused.
 */
bool onlyKnownDowngradeFault(const std::vector<Failure> &bad);

/** One GPU memory access of a drained workload stream. */
struct Access {
    Addr vaddr = 0;
    std::uint32_t cu = 0;
    bool write = false;
};

/** Host nanoseconds per call of each replayed layer function. */
struct LayerTimes {
    double tlbLookupNs = 0;
    double walkNs = 0;
    double tagProbeNs = 0;
    double ptLookupNs = 0;
    double bccLookupNs = 0;
    double bccFillNs = 0;
    double queueNsPerEvent = 0;
};

/** Monotonic host clock in nanoseconds (CLOCK_MONOTONIC). */
std::int64_t nowNs();

/**
 * In-memory span recorder for the traced run. One log per host
 * thread; logs are merged and written as a Chrome trace at the end.
 */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        std::string detail;
        std::int64_t startNs = 0;
        std::int64_t durNs = 0;
        unsigned tid = 0;
    };

    explicit SpanLog(unsigned tid = 0) : tid_(tid) {}

    void
    add(std::string name, std::int64_t start_ns, std::int64_t dur_ns,
        std::string detail = {})
    {
        spans_.push_back(
            {std::move(name), std::move(detail), start_ns, dur_ns, tid_});
    }

    const std::vector<Span> &spans() const { return spans_; }
    void append(const SpanLog &other)
    {
        spans_.insert(spans_.end(), other.spans_.begin(),
                      other.spans_.end());
    }

  private:
    unsigned tid_;
    std::vector<Span> spans_;
};

/**
 * Replay the recorded streams through each layer's public functions:
 * Tlb::lookup/insert and TagStore::accessBlock at the GPU geometries
 * (@p config) on @p stream, PageTable::walk on the L2-TLB miss pages
 * through @p walk_table, ProtectionTable::getPerms and the BCC on
 * @p ppns, plus a bare EventQueue churn. Each replay is one span.
 */
LayerTimes replayLayers(const SystemConfig &config,
                        const std::vector<Access> &stream,
                        const PageTable &walk_table,
                        std::vector<Addr> ppns, SpanLog &log);

/** Write @p log as a Chrome-trace JSON document (times from @p t0). */
bool writeChromeTrace(const SpanLog &log, std::int64_t t0_ns,
                      const std::string &path);

} // namespace bctrl::perfbench

#endif // BCTRL_PERFBENCH_BENCH_HH
