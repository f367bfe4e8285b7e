/**
 * @file
 * The OS model: physical frame allocation, process lifecycle,
 * accelerator scheduling (paper Fig. 3a/3e), the TLB-shootdown and
 * permission-downgrade protocol (Fig. 3d), page-fault service for
 * demand paging, and the handler invoked when Border Control blocks an
 * access.
 */

#ifndef BCTRL_OS_KERNEL_HH
#define BCTRL_OS_KERNEL_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bc/protection_table.hh"
#include "mem/packet.hh"
#include "os/accelerator_control.hh"
#include "os/process.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"

namespace bctrl {

class Ats;
class BorderControl;
class IommuFrontend;

/** A recorded Border Control violation, for the OS to act on. */
struct ViolationRecord {
    Tick when = 0;
    Addr paddr = 0;
    bool wasWrite = false;
    /** Which border policy denied the access (mem/packet.hh). */
    ViolationKind kind = ViolationKind::perms;
};

/**
 * One quarantine-and-recovery episode: the OS paused the accelerator
 * after a violation, flushed it, zeroed the Protection Table, and let
 * the surviving processes continue. Graceful degradation as a
 * first-class measurable outcome.
 */
struct RecoveryRecord {
    Tick begin = 0;          ///< quarantine entered (accelerator pausing)
    Tick end = 0;            ///< accelerator resumed
    Addr paddr = 0;          ///< offending access's physical address
    bool wasWrite = false;   ///< offending access was a write
    std::uint64_t traceId = 0; ///< offending packet's trace id (0 = none)
    /** Which border policy triggered the episode (mem/packet.hh). */
    ViolationKind kind = ViolationKind::perms;
};

class Kernel : public SimObject, public FrameAllocator
{
  public:
    struct Params {
        /**
         * OS + IPI cost of one TLB shootdown round, charged while the
         * accelerator is quiesced.
         */
        Tick shootdownLatency = 1'000'000; // 1 us
        /** Service latency of a (lazy-allocation) page fault. */
        Tick pageFaultLatency = 400'000; // 400 ns
        /**
         * Downgrade policy: selectively flush only the affected page
         * (and update one Protection Table entry) instead of flushing
         * the whole accelerator cache and zeroing the table.
         */
        bool selectiveFlush = false;
        /**
         * What to do when Border Control reports a violation:
         * unschedule the offending process from the accelerator.
         */
        bool killOnViolation = false;
        /**
         * Stronger violation response: quarantine the accelerator as a
         * whole — pause it, flush its caches, zero the Protection
         * Table, invalidate every TLB, then resume so surviving
         * processes can repopulate lazily (Fig. 3e). Each episode is
         * recorded as a RecoveryRecord.
         */
        bool quarantineOnViolation = false;
        /** Shootdown rounds re-issued when an ack is lost (chaos). */
        unsigned maxShootdownRetries = 4;
    };

    Kernel(EventQueue &eq, const std::string &name, BackingStore &store,
           const Params &params);
    ~Kernel() override;

    /** @name Physical frame management */
    /// @{
    Addr allocFrame() override;
    void freeFrame(Addr paddr) override;
    /**
     * Allocate a physically contiguous, zeroed region whose base is
     * aligned to @p align (a power of two; 2 MB frames for large
     * pages, page-aligned otherwise).
     */
    Addr allocContiguous(Addr bytes, Addr align = pageSize);
    Addr framesAllocated() const { return framesAllocated_; }
    BackingStore &memory() { return store_; }
    /// @}

    /** @name Processes */
    /// @{
    Process &createProcess();
    Process *findProcess(Asid asid);
    void destroyProcess(Process &proc);
    /// @}

    /** Wire up the accelerator-side components (System builder). */
    void attachAccelerator(AcceleratorControl *accel, BorderControl *bc,
                           Ats *ats);

    /** Register a translate-at-border front end (for shootdowns). */
    void attachIommuFrontend(IommuFrontend *frontend)
    {
        iommuFrontend_ = frontend;
    }

    /** @name Accelerator scheduling (Fig. 3a / 3e) */
    /// @{

    /**
     * Process initialization: binds @p proc's address space to the
     * ATS; on first use allocates and zeroes a Protection Table and
     * programs Border Control's base/bounds registers.
     */
    void scheduleOnAccelerator(Process &proc);

    /**
     * Process completion: flush accelerator caches, invalidate TLBs
     * and BCC, zero the Protection Table, and when the last process
     * leaves, reclaim the table memory. @p done runs when finished.
     */
    void releaseAccelerator(Process &proc, std::function<void()> done);

    /** True if @p asid is currently scheduled on the accelerator. */
    bool accelRunning(Asid asid) const;
    /// @}

    /**
     * Page-fault service (called by the ATS walker): demand-allocates
     * a frame if a VMA covers the address.
     * @return true if the translation may be retried.
     */
    bool handlePageFault(Asid asid, Addr vaddr, bool need_write);

    /** Extra latency a fault added, drained by the ATS timing path. */
    Tick pageFaultLatency() const { return params_.pageFaultLatency; }

    /** @name Memory-mapping updates (Fig. 3d) */
    /// @{

    /**
     * Downgrade permissions of one page: quiesce the accelerator,
     * update the page table, shoot down TLBs, run the Border Control
     * downgrade protocol, and resume.
     */
    void downgradePage(Process &proc, Addr vaddr, Perms new_perms,
                       std::function<void()> done);

    /**
     * Inject a context-switch-style downgrade: a mapped page is
     * downgraded and immediately restored (used by the Fig. 7 sweep).
     * The full shootdown/flush cost is paid; the address space ends
     * unchanged.
     */
    void injectDowngrade(Process &proc, std::function<void()> done);

    std::uint64_t downgradesPerformed() const
    {
        return downgradesPerformed_;
    }
    /// @}

    /** Page faults serviced for the accelerator (all processes). */
    std::uint64_t pageFaults() const
    {
        return static_cast<std::uint64_t>(pageFaults_.value());
    }

    /** @name Border Control violation handling */
    /// @{
    void onViolation(const Packet &pkt);
    const std::vector<ViolationRecord> &violations() const
    {
        return violations_;
    }
    /** Completed quarantine-and-recovery episodes, in order. */
    const std::vector<RecoveryRecord> &recoveries() const
    {
        return recoveries_;
    }
    std::uint64_t quarantines() const
    {
        return static_cast<std::uint64_t>(quarantines_.value());
    }
    std::uint64_t kills() const
    {
        return static_cast<std::uint64_t>(killsPerformed_.value());
    }
    std::uint64_t shootdownRetries() const
    {
        return static_cast<std::uint64_t>(shootdownRetries_.value());
    }
    /// @}

  private:
    /**
     * The Fig. 3d protocol: quiesce, shoot down TLBs, flush if the
     * Protection Table held write permission, update table/BCC, and
     * resume. @p table_perms drives the flush decision; when
     * @p restore_after is set the PTE is restored to @p restore_perms
     * (context-switch-style transient downgrade).
     */
    void shootdownAndDowngrade(Process &proc, Addr vaddr,
                               Perms table_perms, Perms new_perms,
                               bool restore_after, Perms restore_perms,
                               std::function<void()> done);

    /**
     * One shootdown round: invalidate the page in every TLB, then wait
     * for the acknowledgement. A lost ack (chaos runs) re-issues the
     * round with backoff up to maxShootdownRetries; exhaustion falls
     * back to zeroing the table and invalidating everything, which
     * needs no ack to be safe. @p next continues the Fig. 3d protocol.
     */
    void shootdownRound(Asid asid, Addr vpn, unsigned attempt,
                        std::function<void()> next);

    /**
     * Serialize quiesce/resume cycles: the accelerator cannot be
     * paused twice. Runs @p op immediately when the accelerator is
     * free (the only case on zero-fault runs, so timing is identical),
     * otherwise retries on a shootdown-latency beat.
     */
    void whenAccelIdle(std::function<void()> op);

    /** Unschedule @p asid after a violation (killOnViolation). */
    void killProcess(Asid asid, Addr paddr);

    /** Run one quarantine episode when the accelerator is free. */
    void tryQuarantine();

    BackingStore &store_;
    Params params_;
    Random rng_;

    /** Bump pointer for never-used frames; low memory is reserved. */
    Addr nextFrame_;
    std::vector<Addr> freeFrames_;
    Addr framesAllocated_ = 0;

    Asid nextAsid_ = 1;
    std::unordered_map<Asid, std::unique_ptr<Process>> processes_;

    AcceleratorControl *accel_ = nullptr;
    BorderControl *borderControl_ = nullptr;
    Ats *ats_ = nullptr;
    IommuFrontend *iommuFrontend_ = nullptr;
    std::unordered_set<Asid> accelAsids_;
    /** Frames backing the current Protection Table (for reclaim). */
    std::vector<Addr> tableFrames_;
    std::unique_ptr<ProtectionTable> table_;

    std::vector<ViolationRecord> violations_;
    std::vector<RecoveryRecord> recoveries_;
    std::uint64_t downgradesPerformed_ = 0;

    /** A quiesce/resume cycle (downgrade or quarantine) is running. */
    bool accelBusy_ = false;
    /** A quarantine episode is queued or running. */
    bool quarantinePending_ = false;
    RecoveryRecord pendingRecovery_;

    stats::Scalar &pageFaults_;
    stats::Scalar &shootdowns_;
    stats::Scalar &violationStat_;
    stats::Scalar &quarantines_;
    stats::Scalar &killsPerformed_;
    stats::Scalar &shootdownRetries_;
    stats::Scalar &shootdownRetriesExhausted_;
};

} // namespace bctrl

#endif // BCTRL_OS_KERNEL_HH
