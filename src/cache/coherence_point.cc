#include "cache/coherence_point.hh"

#include "cache/cache.hh"
#include "sim/fault.hh"
#include "sim/host_profiler.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace bctrl {

CoherencePoint::CoherencePoint(EventQueue &eq, const std::string &name,
                               MemDevice &memory, const Params &params)
    : SimObject(eq, name),
      memory_(memory),
      params_(params),
      requests_(statGroup().scalar("requests", "packets handled")),
      recalls_(statGroup().scalar("recalls",
                                  "cross-side block recalls performed")),
      demotions_(statGroup().scalar(
          "demotions",
          "read-only accelerator fills of dirty data written back first"))
{
    blocks_.reserve(params_.reserveBlocks);
}

void
CoherencePoint::recallFrom(bool accel_side, Addr addr)
{
    if (accel_side) {
        if (accelCache_ == nullptr)
            return;
        if (accelHopLatency_ != 0) {
            // The recall crosses the border: a fire-and-forget
            // message. Any writeback it provokes returns through the
            // accelerator's own downstream path with its own border
            // crossing.
            Cache *cache = accelCache_;
            eventQueue().scheduleLambda(
                [cache, addr]() { cache->recallBlock(addr); },
                curTick() + accelHopLatency_);
        } else {
            accelCache_->recallBlock(addr);
        }
        return;
    }
    for (Cache *cache : cpuCaches_)
        cache->recallBlock(addr);
}

bool
CoherencePoint::handleFillRequest(const PacketPtr &pkt, BlockState &st)
{
    const bool from_accel = pkt->requestor == Requestor::accelerator;
    SideState &mine = from_accel ? st.accel : st.cpu;
    SideState &theirs = from_accel ? st.cpu : st.accel;

    bool recalled = false;

    if (pkt->needsWritable) {
        // Exclusive request: the other side must drop its copy (and
        // write back dirty data via its own downstream path).
        if (theirs != SideState::invalid) {
            recallFrom(!from_accel, pkt->paddr);
            theirs = SideState::invalid;
            ++recalls_;
            recalled = true;
        }
        mine = SideState::owned;
        pkt->grantedWritable = true;
    } else {
        // Shared request: demote an owner on the other side to shared.
        // The §3.4.3 invariant: when the accelerator asks read-only for
        // a block that is dirty on the trusted side, the dirty data is
        // written back to memory so the trusted hierarchy keeps (or
        // memory regains) ownership; the accelerator only ever gets a
        // clean shared copy it will never need to write back.
        if (theirs == SideState::owned) {
            recallFrom(!from_accel, pkt->paddr);
            theirs = SideState::invalid;
            ++recalls_;
            if (from_accel)
                ++demotions_;
            recalled = true;
        }
        mine = SideState::shared;
        // Trusted CPU fills may still receive exclusive-clean copies;
        // untrusted read-only fills never do (no owned-E for read-only
        // accelerator requests).
        pkt->grantedWritable = false;
    }
    return recalled;
}

void
CoherencePoint::access(const PacketPtr &pkt)
{
    HostProfiler::Scope profile(eventQueue().profiler(),
                                HostProfiler::Slot::coherence);

    // Injection point: a message entering the coherence point. The
    // surviving copies still run the full state machine below.
    if (fault::FaultEngine *fe = eventQueue().faultEngine()) {
        const fault::Decision fd =
            fe->decide(fault::Point::coherenceMsg, curTick());
        switch (fd.kind) {
          case fault::Kind::drop: {
            PacketPtr held = pkt;
            fe->holdDropped("coherence.msg", curTick(),
                            [this, held]() { access(held); });
            return;
          }
          case fault::Kind::delay: {
            PacketPtr held = pkt;
            eventQueue().scheduleLambda(
                [this, held]() { access(held); },
                curTick() + fd.delay);
            return;
          }
          case fault::Kind::duplicate: {
            // Replay the message through the state machine; the copy
            // carries no response callback of its own.
            auto dup = allocPacket(nullptr, pkt->cmd, pkt->paddr,
                                   pkt->size, pkt->requestor, pkt->asid);
            dup->needsWritable = pkt->needsWritable;
            dup->speculative = pkt->speculative;
            dup->issuedAt = curTick();
            fault::FaultEngine::Suppressor guard(fe);
            access(dup);
            break;
          }
          default:
            break;
        }
    }

    ++requests_;
    Tick delay = params_.latency;

    if (pkt->requestor != Requestor::trustedHw) {
        const bool cacheable_fill =
            pkt->isRead() && pkt->size == blockSize &&
            pageOffset(pkt->paddr) % blockSize == 0;
        auto &st = blocks_[blockAlign(pkt->paddr)];

        if (cacheable_fill) {
            if (handleFillRequest(pkt, st))
                delay += params_.recallPenalty;
        } else if (pkt->isWriteback()) {
            // The block left the writer's cache.
            SideState &mine = pkt->requestor == Requestor::accelerator
                                  ? st.accel
                                  : st.cpu;
            mine = SideState::invalid;
        } else if (pkt->isWrite()) {
            // Uncached / write-through write: invalidate the other
            // side's stale copies.
            const bool from_accel =
                pkt->requestor == Requestor::accelerator;
            SideState &theirs = from_accel ? st.cpu : st.accel;
            if (theirs != SideState::invalid) {
                recallFrom(!from_accel, pkt->paddr);
                theirs = SideState::invalid;
                ++recalls_;
                delay += params_.recallPenalty;
            }
        } else {
            // Uncached read: no state change.
        }
    }

    trace::emit(eventQueue(), trace::Flag::Coherence, name().c_str(),
                delay > params_.latency ? "recall" : "request",
                curTick(), delay, pkt->traceId, pkt->paddr);

    eventQueue().scheduleLambda([this, pkt]() { memory_.access(pkt); },
                                curTick() + delay);
}

} // namespace bctrl
