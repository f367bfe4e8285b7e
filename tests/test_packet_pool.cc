/**
 * @file
 * Unit tests for the PacketPool: field-reset on reuse, heap allocations
 * bounded by the in-flight peak, callback state dropped on release,
 * free-list trimming, and (in sanitized builds) poisoning of parked
 * slots.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/packet_pool.hh"

// Mirror the pool's own ASan detection so the poisoning test only runs
// where the pool actually poisons.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BCTRL_TEST_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define BCTRL_TEST_ASAN 1
#endif

#ifdef BCTRL_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace bctrl;

TEST(PacketPool, ReuseResetsEveryField)
{
    PacketPool pool;
    Packet *raw = nullptr;
    {
        PacketPtr pkt = pool.make(MemCmd::Write, 0x1000, 64,
                                  Requestor::accelerator, 7);
        raw = pkt.get();
        // Dirty every field a response path can touch.
        pkt->isVirtual = true;
        pkt->vaddr = 0xdead;
        pkt->issuedAt = 123;
        pkt->denied = true;
        pkt->needsWritable = true;
        pkt->grantedWritable = true;
        pkt->responded = true;
        pkt->responseGateTick = 456;
        pkt->onResponse = [](Packet &) {};
    }
    ASSERT_EQ(pool.poolSize(), 1u);

    PacketPtr pkt = pool.make(MemCmd::Read, 0x2000, 8,
                              Requestor::trustedHw);
    // Same storage, indistinguishable from a fresh packet.
    EXPECT_EQ(pkt.get(), raw);
    EXPECT_EQ(pkt->cmd, MemCmd::Read);
    EXPECT_EQ(pkt->paddr, 0x2000u);
    EXPECT_EQ(pkt->vaddr, 0u);
    EXPECT_FALSE(pkt->isVirtual);
    EXPECT_EQ(pkt->size, 8u);
    EXPECT_EQ(pkt->asid, 0u);
    EXPECT_EQ(pkt->requestor, Requestor::trustedHw);
    EXPECT_EQ(pkt->issuedAt, 0u);
    EXPECT_FALSE(pkt->denied);
    EXPECT_FALSE(pkt->needsWritable);
    EXPECT_FALSE(pkt->grantedWritable);
    EXPECT_FALSE(pkt->responded);
    EXPECT_EQ(pkt->responseGateTick, 0u);
    EXPECT_FALSE(pkt->onResponse);
    EXPECT_EQ(pool.heapAllocations(), 1u);
}

TEST(PacketPool, HeapAllocationsBoundedByInFlightPeak)
{
    PacketPool pool;
    constexpr unsigned burst = 100;
    for (int round = 0; round < 3; ++round) {
        std::vector<PacketPtr> live;
        for (unsigned i = 0; i < burst; ++i)
            live.push_back(pool.make(MemCmd::Read, i * 64, 64,
                                     Requestor::accelerator));
        EXPECT_EQ(pool.inFlight(), burst);
    }
    // Three bursts of 100, but the heap only ever saw the peak.
    EXPECT_EQ(pool.heapAllocations(), burst);
    EXPECT_EQ(pool.peakInFlight(), burst);
    EXPECT_EQ(pool.inFlight(), 0u);
    EXPECT_EQ(pool.poolSize(), burst);
}

TEST(PacketPool, CopySharesOneReference)
{
    PacketPool pool;
    PacketPtr a = pool.make(MemCmd::Read, 0, 64, Requestor::cpu);
    EXPECT_EQ(a.useCount(), 1u);
    {
        PacketPtr b = a;
        EXPECT_EQ(a.useCount(), 2u);
        EXPECT_EQ(pool.inFlight(), 1u); // one packet, two owners
    }
    EXPECT_EQ(a.useCount(), 1u);
    a = nullptr;
    EXPECT_EQ(pool.inFlight(), 0u);
    EXPECT_EQ(pool.poolSize(), 1u);
}

TEST(PacketPool, ReleaseDropsCapturedCallbackState)
{
    PacketPool pool;
    auto token = std::make_shared<int>(42);
    {
        PacketPtr pkt = pool.make(MemCmd::Read, 0, 64, Requestor::cpu);
        pkt->onResponse = [token](Packet &) {};
        EXPECT_EQ(token.use_count(), 2);
    }
    // The parked packet must not keep the capture alive.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(PacketPool, FreeListTrimsAtCap)
{
    PacketPool pool;
    const std::size_t count = PacketPool::maxPoolSize + 32;
    {
        std::vector<PacketPtr> live;
        live.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            live.push_back(
                pool.make(MemCmd::Read, i * 64, 64, Requestor::cpu));
    }
    EXPECT_EQ(pool.heapAllocations(), count);
    EXPECT_EQ(pool.poolSize(), PacketPool::maxPoolSize);
}

TEST(PacketPool, AllocPacketFallsBackWithoutPool)
{
    // Components constructed without a pool (unit tests) still work.
    PacketPtr pkt =
        allocPacket(nullptr, MemCmd::Write, 0x40, 8, Requestor::cpu, 3);
    EXPECT_EQ(pkt->pool, nullptr);
    EXPECT_EQ(pkt->paddr, 0x40u);
    EXPECT_EQ(pkt->asid, 3u);
}

#ifdef BCTRL_TEST_ASAN
TEST(PacketPool, ParkedSlotsArePoisonedUnderAsan)
{
    PacketPool pool;
    Packet *raw = nullptr;
    {
        PacketPtr pkt = pool.make(MemCmd::Read, 0, 64, Requestor::cpu);
        raw = pkt.get();
        EXPECT_FALSE(__asan_address_is_poisoned(raw));
    }
    // Parked: the slot is poisoned, so a use-after-release traps.
    EXPECT_TRUE(__asan_address_is_poisoned(raw));
    PacketPtr again = pool.make(MemCmd::Read, 0, 64, Requestor::cpu);
    EXPECT_EQ(again.get(), raw);
    EXPECT_FALSE(__asan_address_is_poisoned(raw));
}
#endif
