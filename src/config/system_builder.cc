#include "config/system_builder.hh"

#include "sim/logging.hh"

namespace bctrl {

System::System(const SystemConfig &config)
    : config_(config), allocProf_("system.allocprof"),
      eventqStats_("system.eventq")
{
    const Tick gpu_period = config_.gpuPeriod();
    const Tick cross_latency = config_.crossDomainLatency;

    fatal_if(cross_latency == 0,
             "crossDomainLatency must be nonzero: it is the modelled "
             "accelerator <-> host interconnect hop");

    // Observability first, so every component constructed below can
    // already see the hooks through the event queue.
    if (config_.traceMask != 0) {
        tracer_ = std::make_unique<trace::Tracer>(config_.traceMask);
        eventQueue_.setTracer(tracer_.get());
    }
    if (config_.hostProfile) {
        profiler_ = std::make_unique<HostProfiler>();
        eventQueue_.setProfiler(profiler_.get());
    }
    if (config_.faultPlan.active()) {
        faultEngine_ =
            std::make_unique<fault::FaultEngine>(config_.faultPlan);
        eventQueue_.setFaultEngine(faultEngine_.get());
        if (config_.faultPlan.watchdogInterval != 0) {
            watchdog_ = std::make_unique<fault::Watchdog>(
                eventQueue_, faultEngine_.get(),
                config_.faultPlan.watchdogInterval);
            eventQueue_.setWatchdog(watchdog_.get());
        }
    }

    store_ = std::make_unique<BackingStore>(config_.physMemBytes);

    // Host-side allocation profile: how allocation-free the hot request
    // path actually is. All formulas so they read live counters at
    // dump time.
    allocProf_.formula("packetPoolAllocs",
                      "packets minted from the heap (in-flight peak)",
                      [this]() {
                          return static_cast<double>(
                              packetPool_.heapAllocations());
                      });
    allocProf_.formula("packetPoolPeak",
                      "high-water mark of packets in flight",
                      [this]() {
                          return static_cast<double>(
                              packetPool_.peakInFlight());
                      });
    allocProf_.formula("lambdaPoolAllocs",
                      "lambda events minted from the heap",
                      [this]() {
                          return static_cast<double>(
                              eventQueue_.lambdaAllocations());
                      });
    allocProf_.formula("callbackHeapSpills",
                      "callbacks that overflowed their inline buffer",
                      [this]() {
                          return static_cast<double>(
                              eventQueue_.lambdaSpills() +
                              packetPool_.callbackSpills());
                      });
    allocProf_.formula("backingStoreMruHitRate",
                      "page lookups served by the last-page MRU slot",
                      [this]() {
                          const std::uint64_t lookups =
                              store_->pageLookups();
                          return lookups != 0
                                     ? static_cast<double>(
                                           store_->mruHits()) /
                                           static_cast<double>(lookups)
                                     : 0.0;
                      });

    Dram::Params dram_params;
    dram_params.accessLatency = config_.dramAccessLatency;
    dram_params.bytesPerSecond = config_.memBandwidthBytesPerSec;
    dram_ = std::make_unique<Dram>(eventQueue_, "system.mem",
                                   *store_, dram_params);

    // Everything below the coherence point is across the memory
    // interconnect: requests hop through this port at
    // +crossDomainLatency and responses hop back the same way (via
    // Packet::returnHop).
    borderToDram_ = std::make_unique<CrossDomainPort>(
        eventQueue_, *dram_, cross_latency);

    coherence_ = std::make_unique<CoherencePoint>(
        eventQueue_, "system.coherence", *borderToDram_,
        CoherencePoint::Params{});
    coherence_->setAccelRecallHop(cross_latency);

    bus_ = std::make_unique<MemBus>(eventQueue_, "system.bus",
                                    *coherence_, MemBus::Params{});

    Kernel::Params kernel_params;
    kernel_params.shootdownLatency = config_.shootdownLatency;
    kernel_params.pageFaultLatency = config_.pageFaultLatency;
    kernel_params.selectiveFlush = config_.selectiveFlush;
    kernel_params.killOnViolation = config_.killOnViolation;
    kernel_params.quarantineOnViolation = config_.quarantineOnViolation;
    kernel_ = std::make_unique<Kernel>(eventQueue_, "system.kernel",
                                       *store_, kernel_params);

    // The host CPU (Table 3): one core with a write-through 64 KB L1
    // over a 2 MB write-back L2, on the trusted side of the coherence
    // point.
    {
        const Tick cpu_period = config_.cpuPeriod();
        Cache::Params cl2;
        cl2.size = config_.cpuL2Size;
        cl2.assoc = 16;
        cl2.hitLatency = 12;
        cl2.mshrs = 16;
        cl2.banks = 4;
        cl2.clockPeriod = cpu_period;
        cl2.side = Requestor::cpu;
        cpuL2_ = std::make_unique<Cache>(eventQueue_, "system.cpu.l2",
                                         cl2, *bus_, &packetPool_);
        Cache::Params cl1;
        cl1.size = config_.cpuL1Size;
        cl1.assoc = 8;
        cl1.hitLatency = 2;
        cl1.mshrs = 8;
        cl1.banks = 2;
        cl1.writeThrough = true;
        cl1.clockPeriod = cpu_period;
        cl1.side = Requestor::cpu;
        cpuL1_ = std::make_unique<Cache>(eventQueue_, "system.cpu.l1d",
                                         cl1, *cpuL2_, &packetPool_);
        CpuCore::Params cp;
        cp.clockPeriod = cpu_period;
        cpuCore_ = std::make_unique<CpuCore>(
            eventQueue_, "system.cpu.core0", cp, *kernel_, *cpuL1_,
            &packetPool_);
        coherence_->addCpuCache(cpuL1_.get());
        coherence_->addCpuCache(cpuL2_.get());
    }

    Ats::Params ats_params;
    ats_params.l2Tlb = Tlb::Params{config_.l2TlbEntries, 8};
    ats_params.l2TlbLatency = config_.l2TlbLatencyCycles;
    ats_params.clockPeriod = gpu_period;
    ats_params.spec = config_.speculation;
    ats_ = std::make_unique<Ats>(eventQueue_, "system.ats", ats_params,
                                 *bus_, &packetPool_);
    ats_->setKernel(kernel_.get());

    // Cache parameter templates shared by the GPU-side structures.
    Cache::Params l1p;
    l1p.size = config_.gpuL1Size;
    l1p.assoc = 4;
    l1p.hitLatency = config_.gpuL1HitCycles;
    l1p.mshrs = 16;
    l1p.banks = 2;
    l1p.clockPeriod = gpu_period;

    Cache::Params l2p;
    l2p.size = config_.gpuL2Size();
    l2p.assoc = 8;
    l2p.hitLatency = config_.gpuL2HitCycles;
    l2p.mshrs = 64;
    l2p.banks = 8;
    l2p.clockPeriod = gpu_period;

    Gpu::Params gpu_params;
    gpu_params.numCus = config_.numCus();
    gpu_params.wavefrontsPerCu = config_.wfsPerCu();
    gpu_params.clockPeriod = gpu_period;
    gpu_params.l1Cache = l1p;
    gpu_params.l2Cache = l2p;
    gpu_params.l1Tlb = Tlb::Params{config_.l1TlbEntries, 0};
    gpu_params.spec = config_.speculation;
    gpu_params.specSeed = config_.seed;

    MemDevice *gpu_mem_path = bus_.get();

    switch (config_.safety) {
      case SafetyModel::atsOnlyIommu:
        // Unsafe baseline: the accelerator's physical requests go
        // straight to the memory system.
        gpu_params.kind = Gpu::DatapathKind::physCached;
        break;

      case SafetyModel::fullIommu: {
        // No accelerator caches or TLBs; the IOMMU translates and
        // checks every request on its way to memory.
        gpu_params.kind = Gpu::DatapathKind::iommu;
        gpu_params.hasL2Cache = false;
        IommuFrontend::Params fe;
        fe.clockPeriod = gpu_period;
        fe.requestsPerCycle = 2;
        fe.ownTlb = false; // all translations hit the shared ATS port
        fe.spec = config_.speculation;
        iommuFrontend_ = std::make_unique<IommuFrontend>(
            eventQueue_, "system.iommu", fe, *ats_, *bus_);
        gpu_mem_path = iommuFrontend_.get();
        break;
      }

      case SafetyModel::capiLike: {
        // Trusted host-side L2 behind the translation front end,
        // reached with extra latency (§5.1).
        gpu_params.kind = Gpu::DatapathKind::iommu;
        gpu_params.hasL2Cache = false;
        Cache::Params capi = l2p;
        capi.side = Requestor::cpu; // trusted hardware
        capiL2_ = std::make_unique<Cache>(eventQueue_, "system.capiL2",
                                          capi, *bus_, &packetPool_);
        IommuFrontend::Params fe;
        fe.frontLatency = config_.capiFrontCycles * gpu_period;
        fe.clockPeriod = gpu_period;
        // The CAPI-like unit is dedicated trusted hardware: it has its
        // own (wide-ported) TLB and only walks via the ATS on misses.
        fe.requestsPerCycle = 8;
        fe.ownTlb = true;
        fe.spec = config_.speculation;
        gpu_params.splitIommuRequests = false;
        fe.tlb = Tlb::Params{config_.l2TlbEntries, 8};
        iommuFrontend_ = std::make_unique<IommuFrontend>(
            eventQueue_, "system.capi", fe, *ats_, *capiL2_);
        gpu_mem_path = iommuFrontend_.get();
        break;
      }

      case SafetyModel::borderControlNoBcc:
      case SafetyModel::borderControlBcc: {
        gpu_params.kind = Gpu::DatapathKind::physCached;
        BorderControl::Params bcp;
        bcp.useBcc = config_.safety == SafetyModel::borderControlBcc;
        bcp.bcc.entries = config_.bccEntries;
        bcp.bcc.pagesPerEntry = config_.bccPagesPerEntry;
        bcp.bccLatency = config_.bccLatencyCycles;
        bcp.tableLatency = config_.tableLatencyCycles;
        bcp.clockPeriod = gpu_period;
        bcp.serializeReadChecks = config_.bcSerializeReadChecks;
        bcp.spec = config_.speculation;
        bcp.quotaPages = config_.capQuotaPages;
        borderControl_ = std::make_unique<BorderControl>(
            eventQueue_, "system.bc", bcp, *bus_, &packetPool_);
        gpu_mem_path = borderControl_.get();
        ats_->setBorderControl(borderControl_.get());
        break;
      }
    }

    // The accelerator's traffic leaves its cluster through this port:
    // whatever device guards the border (Border Control, the IOMMU
    // front end, or the bare bus) is reached at +crossDomainLatency,
    // and the port marks each packet so the response crosses back the
    // same way.
    gpuToBorder_ = std::make_unique<CrossDomainPort>(
        eventQueue_, *gpu_mem_path, cross_latency);

    gpu_ = std::make_unique<Gpu>(eventQueue_, "system.gpu", gpu_params,
                                 *ats_, *gpuToBorder_, &packetPool_);
    gpu_->setCrossDomainHop(cross_latency);

    if (gpu_->l2Cache() != nullptr)
        coherence_->setAccelCache(gpu_->l2Cache());
    if (capiL2_)
        coherence_->addCpuCache(capiL2_.get());

    // The kernel commands the accelerator through the border port:
    // pause/flush/invalidate hop to the GPU, completions hop back,
    // each leg carrying the crossing latency.
    accelPort_ = std::make_unique<AcceleratorPort>(eventQueue_, *gpu_,
                                                   cross_latency);
    kernel_->attachAccelerator(accelPort_.get(), borderControl_.get(),
                               ats_.get());
    if (iommuFrontend_)
        kernel_->attachIommuFrontend(iommuFrontend_.get());
    if (borderControl_) {
        borderControl_->setViolationHandler(
            [this](const Packet &pkt) { kernel_->onViolation(pkt); });
    }
    if (iommuFrontend_) {
        iommuFrontend_->setViolationHandler(
            [this](const Packet &pkt) { kernel_->onViolation(pkt); });
    }

    if (watchdog_) {
        watchdog_->setOutstandingProbe(
            [this]() { return gpu_->outstandingMemOps(); });
        watchdog_->addReporter([this]() {
            return "packets in flight: " +
                   std::to_string(packetPool_.inFlight());
        });
        watchdog_->addReporter([this]() {
            return "gpu mem ops outstanding: " +
                   std::to_string(gpu_->outstandingMemOps());
        });
    }

    // Event-queue internals. All formulas read the live queue at dump
    // time. These are host-side diagnostics — stale purges, pending
    // storage, ladder overflow spills — and are excluded from the
    // sim-only dump.
    eventqStats_.formula("stalePurged",
                         "canceled entries discarded by the ladder sweep",
                         [this]() {
                             return static_cast<double>(
                                 eventQueue_.stalePurged());
                         });
    eventqStats_.formula("pendingEntries",
                         "entries resident in the ladder storage",
                         [this]() {
                             return static_cast<double>(
                                 eventQueue_.pendingEntries());
                         });
    eventqStats_.formula(
        "overflowSpills",
        "insertions beyond the ladder horizon (overflow heap)",
        [this]() {
            return static_cast<double>(eventQueue_.overflowSpills());
        });
}

System::~System() = default;

MemDevice &
System::borderDevice()
{
    if (borderControl_)
        return *borderControl_;
    if (iommuFrontend_)
        return *iommuFrontend_;
    return *bus_;
}

void
System::startDowngradeInjector(Process &proc, const bool *finished)
{
    const double rate = config_.downgradesPerSecond;
    if (rate <= 0)
        return;
    const Tick period =
        static_cast<Tick>(static_cast<double>(ticksPerSecond) / rate);

    // Self-rescheduling injector; stops once the kernel completes. The
    // stored function must not capture a strong reference to itself
    // (shared_ptr cycle → leak); each scheduled event holds the strong
    // reference and the body re-locks a weak one to reschedule.
    auto injector = std::make_shared<std::function<void()>>();
    auto in_flight = std::make_shared<bool>(false);
    Process *procp = &proc;
    std::weak_ptr<std::function<void()>> weak_self = injector;
    *injector = [this, procp, finished, period, weak_self, in_flight]() {
        if (*finished)
            return;
        if (!*in_flight) {
            *in_flight = true;
            kernel_->injectDowngrade(
                *procp, [in_flight]() { *in_flight = false; });
        }
        auto self = weak_self.lock();
        if (!self)
            return;
        eventQueue_.scheduleLambda([self]() { (*self)(); },
                                   eventQueue_.curTick() + period);
    };
    eventQueue_.scheduleLambda([injector]() { (*injector)(); },
                               eventQueue_.curTick() + period);
}

RunResult
System::run(const std::string &workload_name)
{
    auto workload =
        makeWorkload(workload_name, config_.workloadScale, config_.seed);
    fatal_if(workload == nullptr, "unknown workload '%s'",
             workload_name.c_str());
    Process &proc = kernel_->createProcess();
    workload->setup(proc);
    return run(*workload, proc);
}

RunResult
System::run(Workload &workload, Process &proc)
{
    workload.bind(config_.numCus(), config_.wfsPerCu());
    kernel_->scheduleOnAccelerator(proc);

    const std::uint64_t mem_ops_before = gpu_->memOpsIssued();

    bool finished = false;
    gpu_->launch(workload, proc, [this, &finished]() {
        // Runs when the last wavefront retires. The completion notice
        // reaches the host one interconnect hop later, like any other
        // accelerator signal.
        eventQueue_.scheduleLambda(
            [&finished]() { finished = true; },
            eventQueue_.curTick() + config_.crossDomainLatency);
    });
    startDowngradeInjector(proc, &finished);

    if (watchdog_) {
        watchdog_->setDoneProbe([&finished]() { return finished; });
        watchdog_->arm();
    }
    eventQueue_.run();
    if (watchdog_)
        watchdog_->setDoneProbe(nullptr);

    bool hung = false;
    if (faultEngine_) {
        hung = watchdog_ != nullptr && watchdog_->hangDetected() &&
               !finished;
        // End of chaos: stop injecting, re-deliver everything the
        // engine held, and let the machine settle so caches, MSHRs,
        // and the packet pool drain (teardown contracts stay clean on
        // every chaos run, hung or not).
        faultEngine_->setEnabled(false);
        if (watchdog_)
            watchdog_->disarm();
        faultEngine_->releaseDropped(eventQueue_);
        eventQueue_.run();
    }
    panic_if(!finished && !hung,
             "event queue drained before kernel completion");

    const Tick end_tick =
        finished ? gpu_->endTick() : eventQueue_.curTick();
    const Tick runtime = end_tick - gpu_->startTick();
    const std::uint64_t mem_ops = gpu_->memOpsIssued() - mem_ops_before;

    bool released = false;
    kernel_->releaseAccelerator(proc, [&released]() { released = true; });
    eventQueue_.run();
    panic_if(!released, "accelerator release did not complete");

    return collect(workload.name(), runtime, mem_ops, hung);
}

RunResult
System::collect(const std::string &workload_name, Tick runtime,
                std::uint64_t mem_ops, bool hung) const
{
    RunResult r;
    r.workload = workload_name;
    r.safety = config_.safety;
    r.profile = config_.profile;
    r.runtimeTicks = runtime;
    r.gpuCycles = static_cast<double>(runtime) /
                  static_cast<double>(config_.gpuPeriod());
    r.memOps = mem_ops;

    if (borderControl_) {
        r.borderRequests = borderControl_->borderRequests();
        r.borderRequestsPerCycle =
            r.gpuCycles > 0 ? r.borderRequests / r.gpuCycles : 0;
        r.bccHits = borderControl_->bccHits();
        r.bccMisses = borderControl_->bccMisses();
        const std::uint64_t lookups = r.bccHits + r.bccMisses;
        r.bccMissRatio =
            lookups > 0 ? static_cast<double>(r.bccMisses) / lookups : 0;
        r.violations = borderControl_->violations();
    }
    if (iommuFrontend_)
        r.violations += iommuFrontend_->denials();

    r.downgrades = kernel_->downgradesPerformed();
    r.pageFaults = kernel_->pageFaults();
    r.translations = ats_->translations();
    r.pageWalks = ats_->walks();
    r.dramBytes = dram_->bytesTransferred();
    r.dramUtilization = dram_->utilization();

    r.specIssued = gpu_->specIssued();
    r.specSquashed = gpu_->specSquashed();
    r.specDeferred = gpu_->specDeferred() + ats_->specDeferred();
    r.specLeaks =
        gpu_->specLeaks() + ats_->specLeaks() + dram_->specWrites();
    if (borderControl_) {
        r.specLeaks += borderControl_->specLeaks();
        r.specDeferred += borderControl_->specDeferred();
        r.capViolations = borderControl_->capViolations();
    }
    if (iommuFrontend_) {
        r.specLeaks += iommuFrontend_->specLeaks();
        r.specDeferred += iommuFrontend_->specDeferred();
    }

    r.hung = hung;
    if (faultEngine_) {
        r.faultsInjected = faultEngine_->totalInjected();
        r.dropsReleased = faultEngine_->dropsReleased();
        r.unsafeWrites = faultEngine_->unsafeWrites();
        r.atsRetries = ats_->retries();
        r.shootdownRetries = kernel_->shootdownRetries();
        r.quarantines = kernel_->quarantines();
        r.kills = kernel_->kills();
    }

    for (unsigned cu = 0; cu < config_.numCus(); ++cu) {
        if (const Cache *l1 = gpu_->l1Cache(cu)) {
            r.l1Hits += l1->demandHits();
            r.l1Misses += l1->demandMisses();
        }
    }
    if (gpu_->l2Cache() != nullptr) {
        r.l2Hits = gpu_->l2Cache()->demandHits();
        r.l2Misses = gpu_->l2Cache()->demandMisses();
    }

    r.packetPoolAllocs = packetPool_.heapAllocations();
    r.packetPoolPeak = packetPool_.peakInFlight();
    r.lambdaPoolAllocs = eventQueue_.lambdaAllocations();
    r.callbackHeapSpills =
        eventQueue_.lambdaSpills() + packetPool_.callbackSpills();
    const std::uint64_t page_lookups = store_->pageLookups();
    r.backingStoreMruHitRate =
        page_lookups != 0 ? static_cast<double>(store_->mruHits()) /
                                static_cast<double>(page_lookups)
                          : 0.0;
    return r;
}

void
System::dumpSimStats(std::ostream &os) const
{
    dram_->statGroup().print(os);
    cpuCore_->statGroup().print(os);
    cpuL1_->statGroup().print(os);
    cpuL2_->statGroup().print(os);
    coherence_->statGroup().print(os);
    bus_->statGroup().print(os);
    kernel_->statGroup().print(os);
    ats_->statGroup().print(os);
    if (borderControl_)
        borderControl_->statGroup().print(os);
    if (capiL2_)
        capiL2_->statGroup().print(os);
    if (iommuFrontend_)
        iommuFrontend_->statGroup().print(os);
    gpu_->statGroup().print(os);
    if (faultEngine_)
        faultEngine_->statGroup().print(os);
    for (const stats::StatGroup *group : extraStats_)
        group->print(os);
}

void
System::dumpSimStatsJson(std::ostream &os) const
{
    bool first = true;
    os << "{";
    dram_->statGroup().printJsonInto(os, first);
    cpuCore_->statGroup().printJsonInto(os, first);
    cpuL1_->statGroup().printJsonInto(os, first);
    cpuL2_->statGroup().printJsonInto(os, first);
    coherence_->statGroup().printJsonInto(os, first);
    bus_->statGroup().printJsonInto(os, first);
    kernel_->statGroup().printJsonInto(os, first);
    ats_->statGroup().printJsonInto(os, first);
    if (borderControl_)
        borderControl_->statGroup().printJsonInto(os, first);
    if (capiL2_)
        capiL2_->statGroup().printJsonInto(os, first);
    if (iommuFrontend_)
        iommuFrontend_->statGroup().printJsonInto(os, first);
    gpu_->statGroup().printJsonInto(os, first);
    if (faultEngine_)
        faultEngine_->statGroup().printJsonInto(os, first);
    for (const stats::StatGroup *group : extraStats_)
        group->printJsonInto(os, first);
    os << "}";
}

void
System::dumpRecoveriesJson(std::ostream &os) const
{
    os << "[";
    bool first = true;
    for (const RecoveryRecord &rec : kernel_->recoveries()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"begin\":" << rec.begin << ",\"end\":" << rec.end
           << ",\"paddr\":" << rec.paddr << ",\"wasWrite\":"
           << (rec.wasWrite ? "true" : "false")
           << ",\"traceId\":" << rec.traceId << ",\"kind\":\""
           << violationKindName(rec.kind) << "\"}";
    }
    os << "]";
}

void
System::dumpStats(std::ostream &os) const
{
    dumpSimStats(os);
    eventqStats_.print(os);
    allocProf_.print(os);
}

void
System::dumpStatsJson(std::ostream &os) const
{
    bool first = true;
    os << "{";
    dram_->statGroup().printJsonInto(os, first);
    cpuCore_->statGroup().printJsonInto(os, first);
    cpuL1_->statGroup().printJsonInto(os, first);
    cpuL2_->statGroup().printJsonInto(os, first);
    coherence_->statGroup().printJsonInto(os, first);
    bus_->statGroup().printJsonInto(os, first);
    kernel_->statGroup().printJsonInto(os, first);
    ats_->statGroup().printJsonInto(os, first);
    if (borderControl_)
        borderControl_->statGroup().printJsonInto(os, first);
    if (capiL2_)
        capiL2_->statGroup().printJsonInto(os, first);
    if (iommuFrontend_)
        iommuFrontend_->statGroup().printJsonInto(os, first);
    gpu_->statGroup().printJsonInto(os, first);
    if (faultEngine_)
        faultEngine_->statGroup().printJsonInto(os, first);
    for (const stats::StatGroup *group : extraStats_)
        group->printJsonInto(os, first);
    eventqStats_.printJsonInto(os, first);
    allocProf_.printJsonInto(os, first);
    os << "}";
}

} // namespace bctrl
