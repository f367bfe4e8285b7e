#include "mem/packet_pool.hh"

#include "sim/contracts.hh"

// ASan detection: poison parked pool slots so a use-after-release
// traps in sanitized builds instead of reading a recycled packet.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define BCTRL_PACKET_POOL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define BCTRL_PACKET_POOL_ASAN 1
#endif

#ifdef BCTRL_PACKET_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace bctrl {

namespace {

inline void
poisonSlot(Packet *pkt)
{
#ifdef BCTRL_PACKET_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(pkt, sizeof(Packet));
#else
    (void)pkt;
#endif
}

inline void
unpoisonSlot(Packet *pkt)
{
#ifdef BCTRL_PACKET_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(pkt, sizeof(Packet));
#else
    (void)pkt;
#endif
}

} // namespace

PacketPool::~PacketPool()
{
    for (Packet *pkt : free_) {
        unpoisonSlot(pkt);
        delete pkt;
    }
}

PacketPtr
PacketPool::make(MemCmd cmd, Addr paddr, unsigned size, Requestor req,
                 Asid asid)
{
    Packet *pkt;
    if (!free_.empty()) {
        pkt = free_.back();
        free_.pop_back();
        unpoisonSlot(pkt);
        BCTRL_ASSERT_MSG(pkt->refCount == 0,
                         "recycled packet still referenced");
    } else {
        pkt = new Packet;
        pkt->pool = this;
        ++heapAllocs_;
    }

    // Reuse resets *every* field (the pool contract): a recycled
    // packet must be indistinguishable from a fresh one, notably the
    // responded/denied/grantedWritable bits.
    pkt->cmd = cmd;
    pkt->paddr = paddr;
    pkt->vaddr = 0;
    pkt->isVirtual = false;
    pkt->size = size;
    pkt->asid = asid;
    pkt->requestor = req;
    pkt->issuedAt = 0;
    pkt->denied = false;
    pkt->violation = ViolationKind::none;
    pkt->speculative = false;
    pkt->needsWritable = false;
    pkt->grantedWritable = false;
    pkt->responded = false;
    pkt->responseGateTick = 0;
    pkt->traceId = ++nextTraceId_;
    pkt->returnHop = 0;

    if (++inFlight_ > peakInFlight_)
        peakInFlight_ = inFlight_;
    return PacketPtr(pkt);
}

void
PacketPool::release(Packet *pkt)
{
    // Drop any captured callback state now (it may own references).
    // Destroying a capture can release another packet, re-entering
    // this pool, so this happens before the pool is touched.
    pkt->onResponse = nullptr;
    pkt->returnHop = 0;
    BCTRL_ASSERT_MSG(inFlight_ > 0, "pool release with nothing in flight");
    --inFlight_;
    if (free_.size() >= maxPoolSize) {
        delete pkt;
        return;
    }
    free_.push_back(pkt);
    poisonSlot(pkt);
}

void
releasePacket(Packet *pkt)
{
    if (pkt->pool != nullptr)
        pkt->pool->release(pkt);
    else
        delete pkt;
}

} // namespace bctrl
