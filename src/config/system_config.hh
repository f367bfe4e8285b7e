/**
 * @file
 * System configuration: the paper's Table 3 parameters, the five
 * safety models of Table 2, and the two GPU threading profiles.
 */

#ifndef BCTRL_CONFIG_SYSTEM_CONFIG_HH
#define BCTRL_CONFIG_SYSTEM_CONFIG_HH

#include <string>
#include <string_view>

#include "mem/addr.hh"
#include "sim/fault.hh"
#include "sim/types.hh"
#include "vm/spec_policy.hh"

namespace bctrl {

/** The five approaches to memory safety evaluated in §5 (Table 2). */
enum class SafetyModel {
    atsOnlyIommu,       ///< unsafe baseline: ATS translation only
    fullIommu,          ///< every request translated+checked; no accel caches
    capiLike,           ///< trusted host-side L2 + TLB, no accel caches
    borderControlNoBcc, ///< Protection Table only
    borderControlBcc,   ///< Protection Table + Border Control Cache
};

/** The two accelerator profiles of §5.1. */
enum class GpuProfile {
    highlyThreaded,     ///< 8 CUs, many contexts (latency tolerant)
    moderatelyThreaded, ///< 1 CU, few contexts (latency sensitive)
};

/** Every safety model, in declaration (and report) order. */
inline constexpr SafetyModel allSafetyModels[] = {
    SafetyModel::atsOnlyIommu,       SafetyModel::fullIommu,
    SafetyModel::capiLike,           SafetyModel::borderControlNoBcc,
    SafetyModel::borderControlBcc,
};

/** Display name, as the paper's tables print it. */
const char *safetyModelName(SafetyModel model);
/** Command-line and report token ("ats-only", ..., "bc-bcc"). */
const char *safetyModelToken(SafetyModel model);
/**
 * Inverse of safetyModelToken().
 * @return false (leaving @p out untouched) for an unknown token.
 */
bool parseSafetyModel(std::string_view token, SafetyModel &out);
const char *gpuProfileName(GpuProfile profile);

/** Qualitative properties used by the Table 1 / Table 2 benches. */
struct SafetyProperties {
    bool safe;            ///< enforces OS page permissions
    bool accelL1Cache;    ///< accelerator-side L1 caches allowed
    bool accelL1Tlb;      ///< accelerator-side TLBs allowed
    bool accelL2Cache;    ///< an L2 on the accelerator side of the border
    bool hasBcc;          ///< Border Control Cache present
    bool directPhysical;  ///< accelerator issues physical addresses
};

SafetyProperties safetyProperties(SafetyModel model);

struct SystemConfig {
    SafetyModel safety = SafetyModel::borderControlBcc;
    GpuProfile profile = GpuProfile::highlyThreaded;

    /** @name Table 3: CPU and clocks */
    /// @{
    std::uint64_t cpuFreqHz = 3'000'000'000ULL;
    std::uint64_t gpuFreqHz = 700'000'000ULL;
    Addr cpuL1Size = 64 * 1024;
    Addr cpuL2Size = 2 * 1024 * 1024;
    /// @}

    /** @name Table 3: GPU shape */
    /// @{
    unsigned highlyThreadedCus = 8;
    unsigned moderatelyThreadedCus = 1;
    unsigned highlyThreadedWfsPerCu = 32;
    unsigned moderatelyThreadedWfsPerCu = 16;
    Addr gpuL1Size = 16 * 1024;
    Addr highlyThreadedL2Size = 256 * 1024;
    Addr moderatelyThreadedL2Size = 64 * 1024;
    unsigned l1TlbEntries = 64;
    unsigned l2TlbEntries = 512;
    /// @}

    /** @name Table 3: memory system */
    /// @{
    Addr physMemBytes = 3ULL * 1024 * 1024 * 1024; // -> 196 KB table
    std::uint64_t memBandwidthBytesPerSec = 180ULL * 1000 * 1000 * 1000;
    Tick dramAccessLatency = 50'000; // 50 ns
    /// @}

    /** @name Table 3: Border Control */
    /// @{
    unsigned bccEntries = 64;          // 8 KB BCC
    unsigned bccPagesPerEntry = 512;
    Cycles bccLatencyCycles = 10;
    Cycles tableLatencyCycles = 100;
    /// @}

    /** @name Other latencies */
    /// @{
    Cycles gpuL1HitCycles = 4;
    Cycles gpuL2HitCycles = 16;
    Cycles l2TlbLatencyCycles = 20;
    /** Extra front latency to the CAPI-like trusted L2 (one way). */
    Cycles capiFrontCycles = 20;
    Tick shootdownLatency = 500'000;    // 500 ns
    Tick pageFaultLatency = 400'000;    // 400 ns
    /// @}

    /** Ablation: serialize read checks instead of overlapping them. */
    bool bcSerializeReadChecks = false;

    /** Permission-downgrade injection rate (Fig. 7); 0 disables. */
    double downgradesPerSecond = 0.0;
    /** Use the selective per-page downgrade flush (§3.2.4 option). */
    bool selectiveFlush = false;

    /** @name Violation response (OS policy) */
    /// @{
    /** Unschedule the offending process when BC reports a violation. */
    bool killOnViolation = false;
    /** Quarantine the accelerator (pause/flush/zero-table/resume). */
    bool quarantineOnViolation = false;
    /// @}

    /**
     * Wrong-path (speculative) request generation and the fill policy
     * governing what trace a squashed crossing may leave behind. Off
     * by default; disabled speculation is provably off the hot path
     * (perf_spec_overhead gate).
     */
    SpeculationConfig speculation;

    /**
     * Per-ASID region quota: the maximum number of distinct
     * quota-capability pages one ASID may touch before Border Control
     * denies the overflow access. 0 disables quota enforcement.
     */
    unsigned capQuotaPages = 0;

    /**
     * Deterministic fault-injection plan (chaos runs). An inactive
     * plan (the default) leaves the System without a FaultEngine or
     * Watchdog, keeping the simulation bit-identical to baseline.
     */
    fault::FaultPlan faultPlan;

    /** Workload scale factor and RNG seed. */
    std::uint64_t workloadScale = 1;
    std::uint64_t seed = 1;

    /** @name Observability (host-side; never alters simulated state) */
    /// @{
    /**
     * Bitwise OR of trace::Flag values; 0 (the default) leaves the
     * System without a Tracer, so the hot-path cost is one branch.
     */
    std::uint32_t traceMask = 0;
    /** Attribute host wall time to components (sweep profile block). */
    bool hostProfile = false;
    /// @}

    /**
     * Latency of one hop across the modelled interconnect between the
     * accelerator, the border complex, and memory (GPU cluster <->
     * border host <-> DRAM), in ticks. Every request, response,
     * translation, and OS command that crosses it pays this once per
     * leg. Must be nonzero. Default: one GPU clock period.
     */
    Tick crossDomainLatency = 1429;

    /** Derived: GPU clock period in ticks. */
    Tick gpuPeriod() const { return periodFromFrequency(gpuFreqHz); }
    Tick cpuPeriod() const { return periodFromFrequency(cpuFreqHz); }

    unsigned
    numCus() const
    {
        return profile == GpuProfile::highlyThreaded
                   ? highlyThreadedCus
                   : moderatelyThreadedCus;
    }
    unsigned
    wfsPerCu() const
    {
        return profile == GpuProfile::highlyThreaded
                   ? highlyThreadedWfsPerCu
                   : moderatelyThreadedWfsPerCu;
    }
    Addr
    gpuL2Size() const
    {
        return profile == GpuProfile::highlyThreaded
                   ? highlyThreadedL2Size
                   : moderatelyThreadedL2Size;
    }
};

/** Aggregated results of one simulated kernel execution. */
struct RunResult {
    std::string workload;
    SafetyModel safety{};
    GpuProfile profile{};

    Tick runtimeTicks = 0;
    double gpuCycles = 0;
    std::uint64_t memOps = 0;

    std::uint64_t borderRequests = 0;
    double borderRequestsPerCycle = 0;
    std::uint64_t bccHits = 0;
    std::uint64_t bccMisses = 0;
    double bccMissRatio = 0;

    std::uint64_t violations = 0;  ///< blocked accesses (BC + IOMMU)
    std::uint64_t downgrades = 0;
    std::uint64_t pageFaults = 0;
    std::uint64_t translations = 0;
    std::uint64_t pageWalks = 0;

    /** @name Chaos outcomes (zero unless a FaultPlan was active) */
    /// @{
    bool hung = false;             ///< watchdog declared a hang
    std::uint64_t faultsInjected = 0;
    std::uint64_t dropsReleased = 0; ///< held messages re-delivered
    std::uint64_t atsRetries = 0;
    std::uint64_t shootdownRetries = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t kills = 0;
    std::uint64_t unsafeWrites = 0; ///< poisoned-frame writes reaching DRAM
    /// @}

    /** @name Speculation outcomes (zero unless speculation.enabled) */
    /// @{
    std::uint64_t specIssued = 0;    ///< wrong-path requests issued
    std::uint64_t specSquashed = 0;  ///< wrong-path requests squashed
    std::uint64_t specDeferred = 0;  ///< spec requests deferred (resident-only)
    /**
     * Observable traces a squashed speculative crossing left in shared
     * state: TLB/BCC fills, Protection Table mutations, serviced page
     * faults, and DRAM writes. Zero by construction under the safe
     * fill policies; the leaky baseline is expected to accumulate
     * these (the chaos invariant checks both directions).
     */
    std::uint64_t specLeaks = 0;
    /// @}

    /** Capability-policy denials (no-share, read-once, quota). */
    std::uint64_t capViolations = 0;

    std::uint64_t dramBytes = 0;
    double dramUtilization = 0;

    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;

    /** @name Allocation profile (host-side, not simulated state) */
    /// @{
    /** Packets minted from the heap (bounded by the in-flight peak). */
    std::uint64_t packetPoolAllocs = 0;
    /** High-water mark of packets in flight at once. */
    std::uint64_t packetPoolPeak = 0;
    /** LambdaEvents minted from the heap by the event queue. */
    std::uint64_t lambdaPoolAllocs = 0;
    /** BackingStore page lookups answered by the last-page MRU slot. */
    double backingStoreMruHitRate = 0;
    /// @}
};

} // namespace bctrl

#endif // BCTRL_CONFIG_SYSTEM_CONFIG_HH
