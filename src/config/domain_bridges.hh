/**
 * @file
 * Border ports: the modelled interconnect hops between the GPU
 * cluster, the border host, and DRAM.
 *
 * Every interaction that crosses the accelerator <-> host interconnect
 * carries the configured cross-domain latency L. These wrappers
 * package that rule behind the two interfaces traffic actually
 * crosses on; both deliver on the System's one event queue:
 *
 *  - CrossDomainPort: a MemDevice facade in front of a device on the
 *    other side. Requests reach the target at +L; the first port on a
 *    request path also marks the packet (Packet::returnHop) so
 *    respondAt() charges the return trip, also +L, exactly once.
 *
 *  - AcceleratorPort: an AcceleratorControl facade in front of the
 *    GPU for the OS kernel. Commands reach the GPU at +L; completion
 *    callbacks (quiesced/flushed) come back at +L from the tick the
 *    GPU side finishes.
 */

#ifndef BCTRL_CONFIG_DOMAIN_BRIDGES_HH
#define BCTRL_CONFIG_DOMAIN_BRIDGES_HH

#include <functional>
#include <utility>

#include "mem/mem_device.hh"
#include "os/accelerator_control.hh"
#include "sim/event_queue.hh"

namespace bctrl {

/**
 * MemDevice facade that forwards access() across the interconnect:
 * the request is delivered to @p target one cross-domain latency
 * after the current tick.
 */
class CrossDomainPort : public MemDevice
{
  public:
    /**
     * @param eq      the System's event queue.
     * @param target  the device behind the border.
     * @param latency the border-crossing latency L.
     */
    CrossDomainPort(EventQueue &eq, MemDevice &target, Tick latency)
        : eq_(&eq), target_(&target), latency_(latency)
    {
    }

    void
    access(const PacketPtr &pkt) override
    {
        // The first border on the request path marks the packet;
        // respondAt() charges the return hop. Later borders (border ->
        // DRAM on a GPU-born packet) leave it alone so the response
        // returns in one hop to the original requester.
        if (pkt->returnHop == 0)
            pkt->returnHop = latency_;
        MemDevice *target = target_;
        eq_->scheduleLambda([target, pkt]() { target->access(pkt); },
                            eq_->curTick() + latency_);
    }

  private:
    EventQueue *eq_;
    MemDevice *target_;
    Tick latency_;
};

/**
 * AcceleratorControl facade between the OS kernel and the GPU. Every
 * command is delivered at now + L; every completion callback is
 * delivered back at (GPU-side completion tick) + L, which may be long
 * after the command arrived.
 */
class AcceleratorPort : public AcceleratorControl
{
  public:
    AcceleratorPort(EventQueue &eq, AcceleratorControl &target,
                    Tick latency)
        : eq_(&eq), target_(&target), latency_(latency)
    {
    }

    void
    pause(std::function<void()> quiesced) override
    {
        AcceleratorControl *t = target_;
        eq_->scheduleLambda(
            [t, cb = hopBack(std::move(quiesced))]() mutable {
                t->pause(std::move(cb));
            },
            hopTick());
    }

    void
    resume() override
    {
        AcceleratorControl *t = target_;
        eq_->scheduleLambda([t]() { t->resume(); }, hopTick());
    }

    void
    flushCaches(std::function<void()> done) override
    {
        AcceleratorControl *t = target_;
        eq_->scheduleLambda(
            [t, cb = hopBack(std::move(done))]() mutable {
                t->flushCaches(std::move(cb));
            },
            hopTick());
    }

    void
    flushCachePage(Addr ppn, std::function<void()> done) override
    {
        AcceleratorControl *t = target_;
        eq_->scheduleLambda(
            [t, ppn, cb = hopBack(std::move(done))]() mutable {
                t->flushCachePage(ppn, std::move(cb));
            },
            hopTick());
    }

    void
    invalidateTlbs() override
    {
        AcceleratorControl *t = target_;
        eq_->scheduleLambda([t]() { t->invalidateTlbs(); }, hopTick());
    }

    void
    invalidateTlbPage(Asid asid, Addr vpn) override
    {
        AcceleratorControl *t = target_;
        eq_->scheduleLambda(
            [t, asid, vpn]() { t->invalidateTlbPage(asid, vpn); },
            hopTick());
    }

  private:
    Tick hopTick() const { return eq_->curTick() + latency_; }

    /**
     * Wrap a kernel-side completion callback so that, when the GPU
     * side eventually invokes it, it is delivered one latency past
     * that *current* tick — the quiesce/flush may complete long after
     * the command landed.
     */
    std::function<void()>
    hopBack(std::function<void()> cb)
    {
        EventQueue *eq = eq_;
        Tick latency = latency_;
        return [eq, latency, cb = std::move(cb)]() mutable {
            eq->scheduleLambda(std::move(cb), eq->curTick() + latency);
        };
    }

    EventQueue *eq_;
    AcceleratorControl *target_;
    Tick latency_;
};

} // namespace bctrl

#endif // BCTRL_CONFIG_DOMAIN_BRIDGES_HH
