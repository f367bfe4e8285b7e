/**
 * @file
 * Tests for the one-queue System and its border ports: components on
 * both sides of the accelerator <-> host interconnect share one
 * EventQueue, whose same-tick order is plain insertion order, and the
 * CrossDomainPort / AcceleratorPort hops charge exactly one
 * crossDomainLatency per leg.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "config/domain_bridges.hh"
#include "config/system_builder.hh"
#include "mem/packet_pool.hh"
#include "sim/logging.hh"

using namespace bctrl;

namespace {

constexpr Tick kLatency = 1429;

/** A device that answers every request in the tick it arrives. */
class EchoDevice : public MemDevice
{
  public:
    explicit EchoDevice(EventQueue &eq) : eq_(eq) {}

    void
    access(const PacketPtr &pkt) override
    {
        arrivals.push_back(eq_.curTick());
        respondAt(eq_, pkt, eq_.curTick());
    }

    std::vector<Tick> arrivals;

  private:
    EventQueue &eq_;
};

/**
 * Records the tick every command lands at; quiesce and flush requests
 * complete a fixed amount of work later.
 */
class StubAccelerator : public AcceleratorControl
{
  public:
    StubAccelerator(EventQueue &eq, Tick work) : eq_(eq), work_(work) {}

    void
    pause(std::function<void()> quiesced) override
    {
        land();
        finishLater(std::move(quiesced));
    }
    void resume() override { land(); }
    void
    flushCaches(std::function<void()> done) override
    {
        land();
        finishLater(std::move(done));
    }
    void
    flushCachePage(Addr, std::function<void()> done) override
    {
        land();
        finishLater(std::move(done));
    }
    void invalidateTlbs() override { land(); }
    void invalidateTlbPage(Asid, Addr) override { land(); }

    std::vector<Tick> landed;

  private:
    void land() { landed.push_back(eq_.curTick()); }

    void
    finishLater(std::function<void()> cb)
    {
        eq_.scheduleLambda([cb = std::move(cb)]() { cb(); },
                           eq_.curTick() + work_);
    }

    EventQueue &eq_;
    Tick work_;
};

/** Issue one read through @p port at @p when; record its response. */
void
issueAt(EventQueue &eq, MemDevice &port, Tick when, Tick *responded)
{
    eq.scheduleLambda(
        [&eq, &port, responded]() {
            PacketPtr pkt = allocPacket(nullptr, MemCmd::Read, 0x4000, 64,
                                        Requestor::accelerator);
            pkt->onResponse = [&eq, responded](Packet &) {
                *responded = eq.curTick();
            };
            port.access(pkt);
        },
        when);
}

} // namespace

TEST(BorderPorts, RequestAndResponseEachPayOneCrossing)
{
    EventQueue eq;
    EchoDevice device(eq);
    CrossDomainPort port(eq, device, kLatency);
    const Tick t0 = 10'000;
    Tick responded = 0;
    issueAt(eq, port, t0, &responded);
    eq.run();
    ASSERT_EQ(device.arrivals.size(), 1u);
    EXPECT_EQ(device.arrivals[0], t0 + kLatency);
    EXPECT_EQ(responded, t0 + 2 * kLatency);
}

/**
 * A GPU request that crosses into the host and then on to memory pays
 * one hop per request leg but only one return hop: the border complex
 * is one package, so the response crosses the interconnect once.
 */
TEST(BorderPorts, ChainedPortsChargeTheReturnHopOnce)
{
    EventQueue eq;
    EchoDevice memory(eq);
    CrossDomainPort to_memory(eq, memory, kLatency);
    CrossDomainPort to_host(eq, to_memory, kLatency);
    const Tick t0 = 20'000;
    Tick responded = 0;
    issueAt(eq, to_host, t0, &responded);
    eq.run();
    ASSERT_EQ(memory.arrivals.size(), 1u);
    EXPECT_EQ(memory.arrivals[0], t0 + 2 * kLatency);
    EXPECT_EQ(responded, t0 + 3 * kLatency);
}

TEST(BorderPorts, AcceleratorCommandsAndCompletionsEachPayOneCrossing)
{
    EventQueue eq;
    constexpr Tick work = 5'000;
    StubAccelerator gpu(eq, work);
    AcceleratorPort port(eq, gpu, kLatency);
    const Tick t0 = 30'000;
    const Tick t1 = 90'000;
    Tick quiesced = 0;
    Tick flushed = 0;
    eq.scheduleLambda(
        [&]() {
            port.pause([&]() { quiesced = eq.curTick(); });
            port.invalidateTlbs();
        },
        t0);
    eq.scheduleLambda(
        [&]() { port.flushCaches([&]() { flushed = eq.curTick(); }); },
        t1);
    eq.run();
    EXPECT_EQ(gpu.landed,
              (std::vector<Tick>{t0 + kLatency, t0 + kLatency,
                                 t1 + kLatency}));
    // The completion leaves when the GPU side finishes, not when the
    // command landed, and pays its own crossing.
    EXPECT_EQ(quiesced, t0 + kLatency + work + kLatency);
    EXPECT_EQ(flushed, t1 + kLatency + work + kLatency);
}

/**
 * Same-tick, same-priority events run first-in first-out, whichever
 * component scheduled them and on whichever side of the interconnect
 * it sits: the order key is (tick, priority, insertion sequence).
 */
TEST(OneQueue, SameTickFifoAcrossComponents)
{
    setLogVerbose(false);
    SystemConfig cfg;
    cfg.physMemBytes = 512ULL * 1024 * 1024;
    System sys(cfg);
    EventQueue &eq = sys.eventQueue();
    EventQueue &dram = sys.dram().eventQueue();
    EventQueue &gpu = sys.gpu().eventQueue();
    EventQueue &host = sys.kernel().eventQueue();
    ASSERT_EQ(&dram, &eq);
    ASSERT_EQ(&gpu, &eq);
    ASSERT_EQ(&host, &eq);

    std::vector<int> log;
    const Tick t = eq.curTick() + 100'000;
    // From outside any event: memory side, accelerator side, host side.
    dram.scheduleLambda([&log]() { log.push_back(0); }, t);
    gpu.scheduleLambda([&log]() { log.push_back(1); }, t);
    host.scheduleLambda([&log]() { log.push_back(2); }, t);
    // From inside earlier events on each side, in the reverse order.
    host.scheduleLambda(
        [&]() { host.scheduleLambda([&log]() { log.push_back(3); }, t); },
        t - 50'000);
    gpu.scheduleLambda(
        [&]() { gpu.scheduleLambda([&log]() { log.push_back(4); }, t); },
        t - 40'000);
    dram.scheduleLambda(
        [&]() { dram.scheduleLambda([&log]() { log.push_back(5); }, t); },
        t - 30'000);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}
