#include "gpu/gpu.hh"

#include <algorithm>

#include "gpu/compute_unit.hh"
#include "gpu/wavefront.hh"
#include "os/process.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace bctrl {

Gpu::Gpu(EventQueue &eq, const std::string &name, const Params &params,
         Ats &ats, MemDevice &mem_path, PacketPool *pool)
    : SimObject(eq, name),
      params_(params),
      ats_(ats),
      memPath_(mem_path),
      pool_(pool),
      memOps_(statGroup().scalar("memOps", "coalesced accesses issued")),
      deniedOps_(statGroup().scalar("deniedOps",
                                    "accesses denied by a safety check")),
      translationFaults_(statGroup().scalar(
          "translationFaults", "accesses abandoned on translation fault")),
      specIssued_(statGroup().scalar(
          "specIssued", "wrong-path speculative twins issued")),
      specSquashed_(statGroup().scalar(
          "specSquashed", "speculative twins squashed on completion")),
      specL1TlbFills_(statGroup().scalar(
          "specL1TlbFills",
          "L1 TLB fills left behind by squashed speculation")),
      specDeferred_(statGroup().scalar(
          "specDeferred",
          "speculative ops refused locally under resident-only"))
{
    panic_if(params_.numCus == 0, "GPU with zero compute units");

    if (params_.kind == DatapathKind::physCached) {
        if (params_.hasL2Cache) {
            Cache::Params l2p = params_.l2Cache;
            l2p.clockPeriod = params_.clockPeriod;
            l2p.side = Requestor::accelerator;
            l2Cache_ = std::make_unique<Cache>(eq, name + ".l2", l2p,
                                               memPath_, pool_);
            statGroup().addChild(&l2Cache_->statGroup());
        }
        for (unsigned cu = 0; cu < params_.numCus; ++cu) {
            auto tlb = std::make_unique<Tlb>(
                eq, formatString("%s.cu%u.l1tlb", name.c_str(), cu),
                params_.l1Tlb);
            statGroup().addChild(&tlb->statGroup());
            l1Tlbs_.push_back(std::move(tlb));

            Cache::Params l1p = params_.l1Cache;
            l1p.clockPeriod = params_.clockPeriod;
            l1p.side = Requestor::accelerator;
            l1p.writeThrough = true;
            MemDevice &below =
                l2Cache_ ? static_cast<MemDevice &>(*l2Cache_)
                         : memPath_;
            auto l1 = std::make_unique<Cache>(
                eq, formatString("%s.cu%u.l1d", name.c_str(), cu), l1p,
                below, pool_);
            statGroup().addChild(&l1->statGroup());
            l1Caches_.push_back(std::move(l1));
        }
    }

    for (unsigned cu = 0; cu < params_.numCus; ++cu) {
        cus_.push_back(std::make_unique<ComputeUnit>(
            eq, formatString("%s.cu%u", name.c_str(), cu), cu,
            params_.wavefrontsPerCu, params_.issueWidth,
            params_.clockPeriod, *this));
    }
}

Gpu::~Gpu() = default;

Tick
Gpu::clockEdge(Cycles cycles) const
{
    Tick now = curTick();
    Tick rem = now % params_.clockPeriod;
    Tick edge = rem == 0 ? now : now + (params_.clockPeriod - rem);
    return edge + cycles * params_.clockPeriod;
}

Tlb *
Gpu::l1Tlb(unsigned cu)
{
    return cu < l1Tlbs_.size() ? l1Tlbs_[cu].get() : nullptr;
}

Cache *
Gpu::l1Cache(unsigned cu)
{
    return cu < l1Caches_.size() ? l1Caches_[cu].get() : nullptr;
}

void
Gpu::launch(Workload &workload, Process &proc,
            std::function<void()> on_done)
{
    panic_if(running(), "launch while a kernel is running");
    workload_ = &workload;
    asid_ = proc.asid();
    onDone_ = std::move(on_done);
    runningWfs_ = params_.numCus * params_.wavefrontsPerCu;
    startTick_ = curTick();
    endTick_ = 0;
    for (auto &cu : cus_)
        cu->startAll();
}

void
Gpu::wavefrontFinished()
{
    panic_if(runningWfs_ == 0, "wavefront underflow");
    if (--runningWfs_ == 0) {
        endTick_ = curTick();
        if (onDone_) {
            auto cb = std::move(onDone_);
            onDone_ = nullptr;
            eventQueue().scheduleLambda(std::move(cb), curTick());
        }
    }
}

void
Gpu::parkWavefront(Wavefront *wf)
{
    parked_.push_back(wf);
}

void
Gpu::issueMem(unsigned cu, const WorkItem &item,
              std::function<void(bool denied)> done)
{
    HostProfiler::Scope profile(eventQueue().profiler(),
                                HostProfiler::Slot::gpu);

    if (item.speculative)
        ++specIssued_;
    else
        ++memOps_;
    ++outstandingMemOps_;
    if (params_.kind == DatapathKind::physCached)
        issuePhys(cu, item, std::move(done));
    else
        issueIommu(item, std::move(done));
}

void
Gpu::finishMemOp(bool denied, std::function<void(bool)> done,
                 bool speculative)
{
    if (speculative) {
        // Every wrong-path twin is squashed when it completes; a denial
        // along the way is not an architectural fault.
        ++specSquashed_;
    } else if (denied) {
        ++deniedOps_;
    }
    panic_if(outstandingMemOps_ == 0, "outstanding mem op underflow");
    --outstandingMemOps_;
    eventQueue().noteProgress(); // watchdog food: an op completed

    done(denied);
    if (paused_ && outstandingMemOps_ == 0 && pauseCb_) {
        auto cb = std::move(pauseCb_);
        pauseCb_ = nullptr;
        eventQueue().scheduleLambda(std::move(cb), curTick());
    }
}

void
Gpu::issuePhys(unsigned cu, const WorkItem &item,
               std::function<void(bool denied)> done)
{
    Tlb &tlb = *l1Tlbs_[cu];
    const Addr vpn = pageNumber(item.vaddr);
    const bool spec = item.speculative;

    if (spec && item.write &&
        params_.spec.fillPolicy != SpecFillPolicy::leaky) {
        // Safe policies: speculative stores complete in the store
        // buffer and never cross the border, so the squash discards
        // them without a trace. Only the leaky baseline lets them
        // through (each arrival is counted at DRAM as a leak).
        auto self = this;
        eventQueue().scheduleLambda(
            [self, done = std::move(done)]() mutable {
                self->finishMemOp(false, std::move(done), true);
            },
            clockEdge(1));
        return;
    }

    auto hit = tlb.lookup(asid_, vpn);

    if (!hit && spec &&
        params_.spec.fillPolicy == SpecFillPolicy::residentOnly) {
        // Resident-only: a speculative L1 TLB miss may not walk or
        // fill anything; the op defers (a local squash).
        ++specDeferred_;
        auto self = this;
        eventQueue().scheduleLambda(
            [self, done = std::move(done)]() mutable {
                self->finishMemOp(false, std::move(done), true);
            },
            clockEdge(params_.l1TlbLatency));
        return;
    }

    auto proceed = [this, cu, item, spec, done = std::move(done)](
                       bool ok, const TlbEntry &entry) mutable {
        if (!ok) {
            // Translation fault: the op never reaches the caches. For
            // a speculative twin this is a squash, not a fault.
            if (!spec)
                ++translationFaults_;
            finishMemOp(true, std::move(done), spec);
            return;
        }
        // The (correct) accelerator checks permissions at its own TLB:
        // a write to a read-only page faults locally.
        const Perms need{!item.write, item.write};
        if (!entry.perms.covers(need)) {
            if (!spec)
                ++translationFaults_;
            finishMemOp(true, std::move(done), spec);
            return;
        }
        const Addr paddr =
            pageBase(entry.ppn + (pageNumber(item.vaddr) - entry.vpn)) |
            pageOffset(item.vaddr);
        auto pkt =
            allocPacket(pool_,
                        item.write ? MemCmd::Write : MemCmd::Read,
                        paddr, item.size, Requestor::accelerator,
                        asid_);
        pkt->speculative = spec;
        pkt->issuedAt = curTick();
        trace::emit(eventQueue(), trace::Flag::PacketLife,
                    name().c_str(), "issue", curTick(), 0, pkt->traceId,
                    pkt->paddr);
        auto self = this;
        pkt->onResponse = [self, spec, done = std::move(done)](Packet &p)
            mutable {
            trace::emit(self->eventQueue(), trace::Flag::PacketLife,
                        self->name().c_str(), "retire", p.issuedAt,
                        self->curTick() - p.issuedAt, p.traceId,
                        p.paddr);
            self->finishMemOp(p.denied, std::move(done), spec);
        };
        if (spec) {
            // Speculative crossings bypass the accelerator caches: an
            // MSHR must never coalesce a committed target under a
            // speculative fill (the border could squash committed data
            // with it), and the committed stream's cache contents must
            // not depend on wrong-path traffic.
            memPath_.access(pkt);
        } else {
            l1Caches_[cu]->access(pkt);
        }
    };

    if (hit) {
        TlbEntry e = *hit;
        eventQueue().scheduleLambda(
            [proceed = std::move(proceed), e]() mutable {
                proceed(true, e);
            },
            clockEdge(params_.l1TlbLatency));
    } else {
        translateVia(item.vaddr, item.write,
                     [this, cu, spec, proceed = std::move(proceed)](
                         bool ok, const TlbEntry &entry) mutable {
                         // Commit gate: a squashed speculative
                         // translation may fill the accelerator L1 TLB
                         // only under the leaky baseline (a recorded
                         // leak); the safe policies fill at commit.
                         if (ok && (!spec ||
                                    params_.spec.fillPolicy ==
                                        SpecFillPolicy::leaky)) {
                             if (spec)
                                 ++specL1TlbFills_;
                             l1Tlbs_[cu]->insert(entry);
                         }
                         proceed(ok, entry);
                     },
                     spec);
    }
}

void
Gpu::translateVia(Addr vaddr, bool write, Ats::Callback cb,
                  bool speculative)
{
    if (hopLatency_ == 0) {
        // No border hop wired (unit tests): synchronous ATS.
        ats_.translate(asid_, vaddr, write, std::move(cb), speculative);
        return;
    }
    // Request hop: deliver the translate to the ATS at now + L.
    // Completion hop: when the ATS answers (possibly after a long page
    // walk), copy the entry and deliver the callback back at that
    // tick + L.
    Ats *ats = &ats_;
    EventQueue *eq = &eventQueue();
    const Tick latency = hopLatency_;
    const Asid asid = asid_;
    eq->scheduleLambda(
        [ats, eq, latency, asid, vaddr, write, speculative,
         cb = std::move(cb)]() mutable {
            ats->translate(
                asid, vaddr, write,
                [eq, latency, cb = std::move(cb)](
                    bool ok, const TlbEntry &entry) mutable {
                    TlbEntry copy = entry;
                    eq->scheduleLambda(
                        [ok, copy, cb = std::move(cb)]() mutable {
                            cb(ok, copy);
                        },
                        eq->curTick() + latency);
                },
                speculative);
        },
        eq->curTick() + latency);
}

void
Gpu::issueIommu(const WorkItem &item,
                std::function<void(bool denied)> done)
{
    // Without accelerator caches there is no line-level coalescing:
    // the wavefront's access leaves the GPU as independent sub-line
    // requests (32 B lanes-groups), each translated and checked at the
    // border. This is the first-order cost of the cache-less designs.
    const unsigned subSize =
        params_.splitIommuRequests ? 32 : item.size;
    const unsigned count = std::max(1u, item.size / subSize);
    const bool spec = item.speculative;

    if (spec && item.write &&
        params_.spec.fillPolicy != SpecFillPolicy::leaky) {
        // Safe policies: speculative stores complete in the store
        // buffer and never reach the IOMMU (see issuePhys).
        auto self = this;
        eventQueue().scheduleLambda(
            [self, done = std::move(done)]() mutable {
                self->finishMemOp(false, std::move(done), true);
            },
            clockEdge(1));
        return;
    }

    struct Join {
        unsigned remaining;
        bool denied = false;
        bool speculative = false;
        std::function<void(bool)> done;
    };
    auto join = std::make_shared<Join>();
    join->remaining = count;
    join->speculative = spec;
    join->done = std::move(done);

    for (unsigned i = 0; i < count; ++i) {
        auto pkt =
            allocPacket(pool_,
                        item.write ? MemCmd::Write : MemCmd::Read, 0,
                        subSize, Requestor::accelerator, asid_);
        pkt->isVirtual = true;
        pkt->speculative = spec;
        pkt->vaddr = item.vaddr + Addr(i) * subSize;
        pkt->issuedAt = curTick();
        trace::emit(eventQueue(), trace::Flag::PacketLife,
                    name().c_str(), "issue", curTick(), 0, pkt->traceId,
                    pkt->vaddr);
        auto self = this;
        pkt->onResponse = [self, join](Packet &p) {
            join->denied = join->denied || p.denied;
            if (--join->remaining == 0) {
                auto cb = std::move(join->done);
                self->finishMemOp(join->denied, std::move(cb),
                                  join->speculative);
            }
        };
        memPath_.access(pkt);
    }
}

void
Gpu::pause(std::function<void()> quiesced)
{
    panic_if(paused_, "pause while already paused");
    paused_ = true;
    if (outstandingMemOps_ == 0) {
        eventQueue().scheduleLambda(std::move(quiesced), curTick());
    } else {
        pauseCb_ = std::move(quiesced);
    }
}

void
Gpu::resume()
{
    panic_if(!paused_, "resume while not paused");
    paused_ = false;
    std::vector<Wavefront *> to_wake;
    to_wake.swap(parked_);
    for (Wavefront *wf : to_wake) {
        eventQueue().scheduleLambda([wf]() { wf->unpark(); },
                                    clockEdge(1));
    }
}

void
Gpu::flushCaches(std::function<void()> done)
{
    // Write-through L1s hold no dirty data: invalidating suffices.
    for (auto &l1 : l1Caches_)
        l1->invalidateAll();
    if (l2Cache_) {
        l2Cache_->flushAll(std::move(done));
    } else {
        eventQueue().scheduleLambda(std::move(done), curTick());
    }
}

void
Gpu::flushCachePage(Addr ppn, std::function<void()> done)
{
    for (auto &l1 : l1Caches_) {
        // Selectively drop the page's blocks from the (clean) L1s.
        l1->tags().forEachBlock([&](CacheBlock &blk) {
            if (pageNumber(blk.addr) == ppn)
                l1->tags().invalidate(&blk);
        });
    }
    if (l2Cache_) {
        l2Cache_->flushPage(ppn, std::move(done));
    } else {
        eventQueue().scheduleLambda(std::move(done), curTick());
    }
}

void
Gpu::invalidateTlbs()
{
    for (auto &tlb : l1Tlbs_)
        tlb->invalidateAll();
}

void
Gpu::invalidateTlbPage(Asid asid, Addr vpn)
{
    for (auto &tlb : l1Tlbs_)
        tlb->invalidatePage(asid, vpn);
}

} // namespace bctrl
