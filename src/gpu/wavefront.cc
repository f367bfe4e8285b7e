#include "gpu/wavefront.hh"

#include "gpu/compute_unit.hh"
#include "gpu/gpu.hh"
#include "sim/logging.hh"

namespace bctrl {

Wavefront::Wavefront(ComputeUnit &cu, Gpu &gpu, unsigned cu_id,
                     unsigned wf_id)
    : cu_(cu), gpu_(gpu), cuId_(cu_id), wfId_(wf_id),
      specRng_(gpu.params().specSeed ^
               ((std::uint64_t(cu_id) * 1024 + wf_id + 1) *
                0x9e3779b97f4a7c15ULL))
{
}

void
Wavefront::start()
{
    done_ = false;
    havePending_ = false;
    faults_ = 0;
    scheduleStep(1);
}

void
Wavefront::scheduleStep(Cycles cycles)
{
    Wavefront *self = this;
    cu_.eventQueue().scheduleLambda([self]() { self->step(); },
                                    cu_.clockEdge(cycles));
}

void
Wavefront::unpark()
{
    if (!done_)
        step();
}

void
Wavefront::step()
{
    if (done_)
        return;
    if (gpu_.paused()) {
        // Keep the pending item (if any) and wait for resume().
        gpu_.parkWavefront(this);
        return;
    }
    if (!havePending_) {
        pending_ = gpu_.workload()->next(cuId_, wfId_);
        havePending_ = true;
    }
    execute(pending_);
}

void
Wavefront::execute(const WorkItem &item)
{
    switch (item.kind) {
      case WorkItem::Kind::compute: {
        // ALU instructions contend for the CU's single issue port just
        // like memory instructions; a compute gap of N cycles models N
        // non-memory instructions of this wavefront.
        havePending_ = false;
        const Tick done =
            cu_.acquireIssueSlots(static_cast<unsigned>(item.cycles));
        Wavefront *self = this;
        cu_.eventQueue().scheduleLambda([self]() { self->step(); },
                                        done);
        return;
      }
      case WorkItem::Kind::mem: {
        // Reserve the CU issue port, then hand the access to the GPU
        // datapath at the reserved slot.
        const Tick slot = cu_.acquireIssueSlot();
        Wavefront *self = this;
        WorkItem copy = item;
        havePending_ = false;
        cu_.eventQueue().scheduleLambda(
            [self, copy]() { self->issueMem(copy); }, slot);
        return;
      }
      case WorkItem::Kind::end:
        havePending_ = false;
        done_ = true;
        gpu_.wavefrontFinished();
        return;
    }
    panic("unreachable work-item kind");
}

void
Wavefront::issueMem(const WorkItem &item)
{
    if (gpu_.paused()) {
        // The pause arrived between slot reservation and issue: hold
        // the access so it cannot race the shootdown protocol.
        pending_ = item;
        havePending_ = true;
        gpu_.parkWavefront(this);
        return;
    }
    const SpeculationConfig &spec = gpu_.params().spec;
    if (spec.enabled && specRng_.nextBool(spec.wrongPathRate)) {
        // Wrong-path twin: a mispredicted branch briefly chases a
        // nearby address before the squash. The twin is tagged
        // speculative, completes into a no-op callback (the squash),
        // and is never part of the architectural stream — the real
        // item below is. Issued inside our already-scheduled CU slot,
        // so this is a same-domain call, not a new border crossing.
        WorkItem twin = item;
        twin.vaddr = item.vaddr + 3 * pageSize;
        twin.speculative = true;
        gpu_.issueMem(cuId_, twin, [](bool) {});
    }
    Wavefront *self = this;
    gpu_.issueMem(cuId_, item,
                  [self](bool denied) { self->memDone(denied); });
}

void
Wavefront::memDone(bool denied)
{
    if (denied) {
        ++faults_;
        if (faults_ >= gpu_.params().maxWavefrontFaults) {
            // Repeated denials: the wavefront aborts (the OS has been
            // notified by Border Control / the IOMMU).
            done_ = true;
            gpu_.wavefrontFinished();
            return;
        }
    }
    scheduleStep(1);
}

} // namespace bctrl
