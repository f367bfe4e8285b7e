/**
 * @file
 * The timing-mode interface every memory-system component implements.
 *
 * A MemDevice accepts packets; responses travel back through the
 * packet's onResponse callback, scheduled on the event queue at the
 * responding device's computed completion tick. There is no explicit
 * backpressure protocol: devices with finite resources (MSHRs, DRAM
 * queues) model contention by delaying completion.
 */

#ifndef BCTRL_MEM_MEM_DEVICE_HH
#define BCTRL_MEM_MEM_DEVICE_HH

#include <algorithm>
#include <utility>

#include "mem/packet.hh"
#include "mem/packet_pool.hh"
#include "sim/contracts.hh"
#include "sim/event_queue.hh"

namespace bctrl {

class MemDevice
{
  public:
    virtual ~MemDevice() = default;

    /** Accept @p pkt for timing processing. */
    virtual void access(const PacketPtr &pkt) = 0;
};

/**
 * Deliver @p pkt's response at tick @p when via the event queue.
 *
 * If the packet crossed the accelerator <-> host interconnect on the
 * way in (Packet::returnHop set by the first CrossDomainPort it
 * traversed), the response is delivered one crossing latency later:
 * the return trip is not free. The hop is charged exactly once per
 * response no matter how many devices forwarded the request (the
 * border complex is one package; only the interconnect pays).
 *
 * If Border Control armed a response gate (responseGateTick != 0, the
 * §3.4.1 parallel read check), the callback is deferred through one
 * more queue hop to max(now, gate) — the same two-hop schedule the
 * old wrapped-callback implementation produced, so event ordering is
 * bit-identical.
 */
inline void
respondAt(EventQueue &eq, const PacketPtr &pkt, Tick when)
{
    if (!pkt->onResponse)
        return;
    EventQueue *eqp = &eq;
    eqp->scheduleLambda([eqp, pkt]() {
        if (pkt->onResponse) {
            // Watchdog food: every delivered response is forward
            // progress (a plain host-side counter bump).
            eqp->noteProgress();
            BCTRL_ASSERT_MSG(!pkt->responded,
                             "second response delivered for packet %s",
                             pkt->toString().c_str());
            pkt->responded = true;
            if (pkt->onResponse.spilled() && pkt->pool != nullptr)
                pkt->pool->noteCallbackSpill();
            auto cb = std::move(pkt->onResponse);
            pkt->onResponse = nullptr;
            if (pkt->responseGateTick != 0) {
                const Tick fire =
                    std::max(eqp->curTick(), pkt->responseGateTick);
                pkt->responseGateTick = 0;
                eqp->scheduleLambda(
                    [pkt, cb = std::move(cb)]() mutable { cb(*pkt); },
                    fire);
            } else {
                cb(*pkt);
            }
        }
    }, when + pkt->returnHop);
}

} // namespace bctrl

#endif // BCTRL_MEM_MEM_DEVICE_HH
