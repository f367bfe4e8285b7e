/**
 * @file
 * The accelerator model: a GPGPU with configurable compute units and
 * wavefront counts (the paper's highly threaded 8-CU and moderately
 * threaded 1-CU profiles), used as the stress-test accelerator.
 *
 * Two datapaths cover the five evaluated configurations:
 *  - physCached: per-CU L1 TLBs and write-through L1 caches over a
 *    shared write-back L2, all physically addressed. The L2's
 *    downstream is Border Control (BC configs) or the memory system
 *    directly (unsafe ATS-only baseline).
 *  - iommu: no accelerator TLBs or caches; every access is sent as a
 *    virtual address to an IOMMU front end (full-IOMMU config), which
 *    may sit in front of a trusted host-side L2 (CAPI-like config).
 */

#ifndef BCTRL_GPU_GPU_HH
#define BCTRL_GPU_GPU_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "os/accelerator_control.hh"
#include "sim/sim_object.hh"
#include "vm/ats.hh"
#include "vm/spec_policy.hh"
#include "workloads/workload.hh"

namespace bctrl {

class ComputeUnit;
class Process;

class Gpu : public SimObject, public AcceleratorControl
{
  public:
    enum class DatapathKind {
        physCached, ///< accelerator TLBs + physical caches
        iommu,      ///< translate-at-border, no accelerator caches
    };

    struct Params {
        unsigned numCus = 8;
        unsigned wavefrontsPerCu = 32;
        /** Memory instructions issued per CU per cycle. */
        unsigned issueWidth = 1;
        Tick clockPeriod = 1'429; // 700 MHz
        DatapathKind kind = DatapathKind::physCached;
        Cache::Params l1Cache;
        Cache::Params l2Cache;
        bool hasL2Cache = true;
        Tlb::Params l1Tlb{64, 0};
        Cycles l1TlbLatency = 1;
        /**
         * On the iommu datapath, split each coalesced access into
         * 32 B sub-requests (no caches means no line-level merging).
         * The CAPI-like link carries coalesced requests intact.
         */
        bool splitIommuRequests = true;
        /** Denied/faulted accesses before a wavefront gives up. */
        unsigned maxWavefrontFaults = 8;
        /**
         * Wrong-path speculation knobs (vm/spec_policy.hh). When
         * enabled, wavefronts occasionally issue a speculative twin of
         * a memory item that is always squashed; the fill policy
         * decides what trace it may leave behind.
         */
        SpeculationConfig spec;
        /** Seed mixed into each wavefront's wrong-path RNG. */
        std::uint64_t specSeed = 0;
    };

    /**
     * @param ats translation service (used by the physCached path)
     * @param mem_path where accelerator traffic leaves the GPU: Border
     *        Control or the bus (physCached), or the IOMMU front end
     *        (iommu kind)
     * @param pool packet pool shared with the GPU's internal caches;
     *        null (unit tests) falls back to heap packets
     */
    Gpu(EventQueue &eq, const std::string &name, const Params &params,
        Ats &ats, MemDevice &mem_path, PacketPool *pool = nullptr);
    ~Gpu() override;

    /** @name Kernel launch */
    /// @{

    /**
     * Run @p workload for @p proc. bind() and setup() must already
     * have been called on the workload. @p on_done fires when every
     * wavefront has finished.
     */
    void launch(Workload &workload, Process &proc,
                std::function<void()> on_done);

    bool running() const { return runningWfs_ != 0; }
    Tick startTick() const { return startTick_; }
    Tick endTick() const { return endTick_; }
    /// @}

    /** @name AcceleratorControl (the kernel's view) */
    /// @{
    void pause(std::function<void()> quiesced) override;
    void resume() override;
    void flushCaches(std::function<void()> done) override;
    void flushCachePage(Addr ppn, std::function<void()> done) override;
    void invalidateTlbs() override;
    void invalidateTlbPage(Asid asid, Addr vpn) override;
    /// @}

    /** @name Wavefront support (internal use) */
    /// @{
    bool paused() const { return paused_; }
    Workload *workload() { return workload_; }
    const Params &params() const { return params_; }

    /** Issue one coalesced access; @p done receives the denied flag. */
    void issueMem(unsigned cu, const WorkItem &item,
                  std::function<void(bool denied)> done);

    void wavefrontFinished();
    void parkWavefront(class Wavefront *wf);
    /// @}

    Cache *l2Cache() { return l2Cache_.get(); }
    Cache *l1Cache(unsigned cu);
    Tlb *l1Tlb(unsigned cu);

    /**
     * Charge TLB-miss translation requests one interconnect hop of
     * @p latency each way, instead of calling the ATS synchronously:
     * the ATS (page walker and all) lives on the host side of the
     * border. Unset (unit tests), translate stays synchronous.
     */
    void setCrossDomainHop(Tick latency) { hopLatency_ = latency; }

    std::uint64_t memOpsIssued() const
    {
        return static_cast<std::uint64_t>(memOps_.value());
    }
    std::uint64_t deniedOps() const
    {
        return static_cast<std::uint64_t>(deniedOps_.value());
    }
    /** Memory ops issued but not yet completed (watchdog probe). */
    std::uint64_t outstandingMemOps() const { return outstandingMemOps_; }

    /** @name Speculative-crossing accounting (vm/spec_policy.hh) */
    /// @{
    std::uint64_t specIssued() const
    {
        return static_cast<std::uint64_t>(specIssued_.value());
    }
    std::uint64_t specSquashed() const
    {
        return static_cast<std::uint64_t>(specSquashed_.value());
    }
    /** Accelerator L1 TLB fills left by squashed speculation. */
    std::uint64_t specLeaks() const
    {
        return static_cast<std::uint64_t>(specL1TlbFills_.value());
    }
    /** Speculative ops refused locally under resident-only. */
    std::uint64_t specDeferred() const
    {
        return static_cast<std::uint64_t>(specDeferred_.value());
    }
    /// @}

  private:
    void issuePhys(unsigned cu, const WorkItem &item,
                   std::function<void(bool denied)> done);
    void issueIommu(const WorkItem &item,
                    std::function<void(bool denied)> done);
    void translateVia(Addr vaddr, bool write, Ats::Callback cb,
                      bool speculative = false);
    void finishMemOp(bool denied, std::function<void(bool)> done,
                     bool speculative = false);
    Tick clockEdge(Cycles cycles = 0) const;

    Params params_;
    Ats &ats_;
    MemDevice &memPath_;
    PacketPool *pool_;
    Tick hopLatency_ = 0;

    std::vector<std::unique_ptr<ComputeUnit>> cus_;
    std::vector<std::unique_ptr<Tlb>> l1Tlbs_;
    std::vector<std::unique_ptr<Cache>> l1Caches_;
    std::unique_ptr<Cache> l2Cache_;

    Workload *workload_ = nullptr;
    Asid asid_ = 0;
    std::function<void()> onDone_;
    unsigned runningWfs_ = 0;
    Tick startTick_ = 0;
    Tick endTick_ = 0;

    bool paused_ = false;
    std::function<void()> pauseCb_;
    std::uint64_t outstandingMemOps_ = 0;
    std::vector<class Wavefront *> parked_;

    stats::Scalar &memOps_;
    stats::Scalar &deniedOps_;
    stats::Scalar &translationFaults_;
    /** @name Speculative-crossing accounting */
    /// @{
    stats::Scalar &specIssued_;
    stats::Scalar &specSquashed_;
    stats::Scalar &specL1TlbFills_;
    stats::Scalar &specDeferred_;
    /// @}
};

} // namespace bctrl

#endif // BCTRL_GPU_GPU_HH
