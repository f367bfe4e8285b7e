#include "mem/dram.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/host_profiler.hh"
#include "sim/trace.hh"

namespace bctrl {

Dram::Dram(EventQueue &eq, const std::string &name, BackingStore &store,
           const Params &params)
    : SimObject(eq, name),
      store_(store),
      params_(params),
      readReqs_(statGroup().scalar("readReqs", "read requests serviced")),
      writeReqs_(statGroup().scalar("writeReqs",
                                    "write requests serviced")),
      bytesRead_(statGroup().scalar("bytesRead", "bytes read")),
      bytesWritten_(statGroup().scalar("bytesWritten", "bytes written")),
      readLatency_(statGroup().distribution(
          "readLatency", "read latency including queueing (ticks)")),
      queueDelay_(statGroup().histogram(
          "queueDelay", "ticks spent waiting for the channel")),
      specWrites_(statGroup().scalar(
          "specWrites",
          "squashed speculative accelerator writes reaching DRAM"))
{
}

Tick
Dram::transferTime(unsigned bytes) const
{
    unsigned effective = std::max(bytes, params_.minBurstBytes);
    // ticks = bytes * ticksPerSecond / bytesPerSecond, computed without
    // overflow for realistic parameters.
    return static_cast<Tick>(
        (static_cast<__uint128_t>(effective) * ticksPerSecond) /
        params_.bytesPerSecond);
}

void
Dram::access(const PacketPtr &pkt)
{
    HostProfiler::Scope profile(eventQueue().profiler(),
                                HostProfiler::Slot::dram);

    const Tick now = curTick();
    const Tick start = std::max(now, busyUntil_);
    const Tick xfer = transferTime(pkt->size);
    busyUntil_ = start + xfer;
    busyTime_ += xfer;

    queueDelay_.sample(static_cast<double>(start - now));
    trace::emit(eventQueue(), trace::Flag::DRAM, name().c_str(),
                pkt->isRead() ? "read" : "write", start, xfer,
                pkt->traceId, pkt->paddr);

    fault::FaultEngine *fe = eventQueue().faultEngine();
    if (fe != nullptr) {
        // Safety-invariant audit: the memory endpoint is the ground
        // truth for "an unsafe access completed". If a corrupted
        // translation poisoned a frame and an accelerator write to it
        // got this far, every checker upstream failed.
        if (pkt->isWrite() && pkt->requestor == Requestor::accelerator &&
            fe->poisoned(pkt->pageNum(), now))
            fe->noteUnsafeWrite();
    }

    // Speculation-invariant audit: a squashed (wrong-path) accelerator
    // write that reaches the memory endpoint is an observable trace
    // the safe fill policies must never leave. Only the leaky
    // baseline lets speculative writes cross the border at all.
    if (pkt->isWrite() && pkt->requestor == Requestor::accelerator &&
        pkt->speculative)
        ++specWrites_;

    Tick done = pkt->isRead() ? busyUntil_ + params_.accessLatency
                              : busyUntil_;
    if (pkt->isRead()) {
        // Memory is the default owner: a fill that asked for a
        // writable copy gets one when it reaches the memory endpoint
        // directly (systems with a coherence point decide upstream).
        if (pkt->needsWritable)
            pkt->grantedWritable = true;
        ++readReqs_;
        bytesRead_ += pkt->size;
        readLatency_.sample(static_cast<double>(done - now));
    } else {
        ++writeReqs_;
        bytesWritten_ += pkt->size;
        // Writes are acknowledged once the channel accepts them.
    }

    // Injection point: the completion crossing back to the requester.
    if (fe != nullptr) {
        const fault::Decision fd =
            fe->decide(fault::Point::dramResponse, now);
        switch (fd.kind) {
          case fault::Kind::drop: {
            // The response vanishes until recovery re-delivers it (at
            // release time, not at the stale completion tick).
            PacketPtr held = pkt;
            EventQueue *eqp = &eventQueue();
            fe->holdDropped("dram.response", now, [eqp, held]() {
                respondAt(*eqp, held, eqp->curTick());
            });
            return;
          }
          case fault::Kind::delay:
            done += fd.delay;
            break;
          case fault::Kind::duplicate:
            // A replayed completion. respondAt() consumes onResponse
            // on first delivery, so the duplicate is absorbed — the
            // responded-once contract holds by construction.
            respondAt(eventQueue(), pkt, done);
            break;
          default:
            break;
        }
    }
    respondAt(eventQueue(), pkt, done);
}

double
Dram::utilization() const
{
    const Tick now = curTick();
    return now == 0 ? 0.0
                    : static_cast<double>(busyTime_) /
                          static_cast<double>(now);
}

std::uint64_t
Dram::bytesTransferred() const
{
    return static_cast<std::uint64_t>(bytesRead_.value() +
                                      bytesWritten_.value());
}

} // namespace bctrl
