/**
 * @file
 * System: constructs and wires a complete simulated machine for one
 * SystemConfig — memory, coherence point, kernel, ATS, the safety
 * mechanism under study, and the GPU — and runs workloads on it.
 *
 * This is the main entry point of the library's public API: examples
 * and benchmark harnesses build a System, call run(), and read the
 * returned RunResult.
 */

#ifndef BCTRL_CONFIG_SYSTEM_BUILDER_HH
#define BCTRL_CONFIG_SYSTEM_BUILDER_HH

#include <memory>
#include <ostream>

#include "bc/border_control.hh"
#include "cache/coherence_point.hh"
#include "cpu/cpu_core.hh"
#include "config/domain_bridges.hh"
#include "config/system_config.hh"
#include "gpu/gpu.hh"
#include "mem/dram.hh"
#include "mem/mem_bus.hh"
#include "mem/packet_pool.hh"
#include "os/kernel.hh"
#include "sim/fault.hh"
#include "sim/host_profiler.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"
#include "vm/iommu_frontend.hh"

namespace bctrl {

class System
{
  public:
    explicit System(const SystemConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run the named workload to completion on the accelerator and
     * return its measurements. Each call creates a fresh process.
     */
    RunResult run(const std::string &workload_name);

    /**
     * Run an already-constructed workload for @p proc (which must not
     * yet be scheduled on the accelerator). setup() must have been
     * called; bind() is performed here.
     */
    RunResult run(Workload &workload, Process &proc);

    /** @name Component access (examples, tests, attack injection) */
    /// @{
    const SystemConfig &config() const { return config_; }
    EventQueue &eventQueue() { return eventQueue_; }
    PacketPool &packetPool() { return packetPool_; }
    BackingStore &memory() { return *store_; }
    Dram &dram() { return *dram_; }
    CoherencePoint &coherencePoint() { return *coherence_; }
    MemBus &bus() { return *bus_; }
    Kernel &kernel() { return *kernel_; }
    Ats &ats() { return *ats_; }
    Gpu &gpu() { return *gpu_; }
    CpuCore &cpu() { return *cpuCore_; }
    Cache &cpuL1() { return *cpuL1_; }
    Cache &cpuL2() { return *cpuL2_; }
    /** Null unless a Border Control configuration. */
    BorderControl *borderControl() { return borderControl_.get(); }
    /** Null unless full-IOMMU or CAPI-like. */
    IommuFrontend *iommuFrontend() { return iommuFrontend_.get(); }
    /** Null unless CAPI-like. */
    Cache *capiL2() { return capiL2_.get(); }
    /** The device accelerator traffic enters when it leaves the GPU. */
    MemDevice &borderDevice();
    /** Null unless the config's traceMask is nonzero. */
    trace::Tracer *tracer() { return tracer_.get(); }
    /** Null unless the config enabled host profiling. */
    HostProfiler *hostProfiler() { return profiler_.get(); }
    /** Null unless the config's faultPlan is active. */
    fault::FaultEngine *faultEngine() { return faultEngine_.get(); }
    /** Null unless the faultPlan asked for a watchdog. */
    fault::Watchdog *watchdog() { return watchdog_.get(); }
    /// @}

    /**
     * Register an externally owned stat group (e.g. an AttackInjector's
     * outcomes) to be included in dumpStats()/dumpStatsJson(). The
     * group must outlive the System's dump calls.
     */
    void addStatGroup(const stats::StatGroup *group)
    {
        extraStats_.push_back(group);
    }

    /** Print every component's statistics. */
    void dumpStats(std::ostream &os) const;

    /**
     * All components' statistics as one flat JSON object keyed by
     * fully qualified stat name.
     */
    void dumpStatsJson(std::ostream &os) const;

    /**
     * Simulated-state statistics only: the component groups (plus any
     * registered extra groups), without the host-side blocks
     * (system.allocprof, system.eventq). This is the dump bit-identity
     * comparisons use (reruns, sweeps, tracing or profiling on/off):
     * host counters may legitimately differ, the simulation must not.
     */
    void dumpSimStats(std::ostream &os) const;
    /** JSON flavor of dumpSimStats (flat object, same key scheme). */
    void dumpSimStatsJson(std::ostream &os) const;

    /**
     * The kernel's quarantine-and-recovery episodes as a JSON array
     * (schema: [{"begin","end","paddr","wasWrite","traceId","kind"}]),
     * for the tools' --stats-json payloads. Deterministic simulated
     * state.
     */
    void dumpRecoveriesJson(std::ostream &os) const;

  private:
    RunResult collect(const std::string &workload_name, Tick runtime,
                      std::uint64_t mem_ops, bool hung) const;
    void startDowngradeInjector(Process &proc, const bool *finished);

    SystemConfig config_;
    EventQueue eventQueue_;
    /**
     * Declared before every component so it outlives them: packets can
     * still be released into the pool while components tear down.
     */
    PacketPool packetPool_;
    /**
     * Trace sink and host profiler (null when disabled). Declared
     * before the components: trace Records borrow component name
     * strings, so the Tracer must still be alive while components emit
     * during teardown-adjacent activity, and both must outlive the
     * EventQueue consumers that hold raw pointers to them.
     */
    std::unique_ptr<trace::Tracer> tracer_;
    std::unique_ptr<HostProfiler> profiler_;
    /**
     * Chaos hooks (null on zero-fault runs). Declared before the
     * components like the tracer: injection sites reach them through
     * raw EventQueue pointers.
     */
    std::unique_ptr<fault::FaultEngine> faultEngine_;
    std::unique_ptr<fault::Watchdog> watchdog_;
    /** "system.allocprof" counters, printed last by dumpStats(). */
    stats::StatGroup allocProf_;
    /** "system.eventq" ladder internals. */
    stats::StatGroup eventqStats_;
    /** Externally owned groups appended to the stat dumps. */
    std::vector<const stats::StatGroup *> extraStats_;
    std::unique_ptr<BackingStore> store_;
    std::unique_ptr<Dram> dram_;
    /** Border -> DRAM hop; the coherence point's memory path. */
    std::unique_ptr<CrossDomainPort> borderToDram_;
    std::unique_ptr<CoherencePoint> coherence_;
    std::unique_ptr<MemBus> bus_;
    std::unique_ptr<Kernel> kernel_;
    std::unique_ptr<Cache> cpuL2_;
    std::unique_ptr<Cache> cpuL1_;
    std::unique_ptr<CpuCore> cpuCore_;
    std::unique_ptr<Ats> ats_;
    std::unique_ptr<BorderControl> borderControl_;
    std::unique_ptr<Cache> capiL2_;
    std::unique_ptr<IommuFrontend> iommuFrontend_;
    /** GPU cluster -> border hop; the GPU's memory path. */
    std::unique_ptr<CrossDomainPort> gpuToBorder_;
    std::unique_ptr<Gpu> gpu_;
    /** Border -> GPU hop for the kernel's control commands. */
    std::unique_ptr<AcceleratorPort> accelPort_;
};

} // namespace bctrl

#endif // BCTRL_CONFIG_SYSTEM_BUILDER_HH
