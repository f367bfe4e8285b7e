/**
 * @file
 * PacketPool: a per-System free list of intrusively ref-counted
 * Packets, mirroring the EventQueue's LambdaEvent pool.
 *
 * Steady-state request traffic allocates nothing: heap allocations are
 * bounded by the in-flight peak, and reuse resets every field of the
 * recycled packet — including the `responded` contract bit and the
 * `denied`/`grantedWritable` flags — so a recycled packet is
 * indistinguishable from a fresh one. In sanitized builds the pool
 * poisons parked slots so a use-after-release traps under ASan
 * instead of silently reading a recycled packet.
 *
 * This file (with mem/packet.cc) is the only place allowed to mint
 * Packets directly; everywhere else the bclint rule `raw-packet-alloc`
 * enforces going through `allocPacket` / `PacketPool::make`.
 */

#ifndef BCTRL_MEM_PACKET_POOL_HH
#define BCTRL_MEM_PACKET_POOL_HH

#include <cstdint>
#include <vector>

#include "mem/packet.hh"

namespace bctrl {

class PacketPool
{
  public:
    PacketPool() { free_.reserve(initialFreeListCapacity); }
    ~PacketPool();

    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** Acquire a packet (recycled or fresh) with all fields reset. */
    PacketPtr make(MemCmd cmd, Addr paddr, unsigned size, Requestor req,
                   Asid asid = 0);

    /** Packets minted from the heap (== the in-flight peak, capped). */
    std::uint64_t heapAllocations() const { return heapAllocs_; }
    /** Packets currently owned by live PacketPtrs. */
    std::uint64_t inFlight() const { return inFlight_; }
    /** High-water mark of inFlight(). */
    std::uint64_t peakInFlight() const { return peakInFlight_; }
    /** Parked packets available for reuse. */
    std::size_t poolSize() const { return free_.size(); }

    /** Count an onResponse callback that overflowed its inline buffer. */
    void noteCallbackSpill() { ++callbackSpills_; }
    std::uint64_t callbackSpills() const { return callbackSpills_; }

    /**
     * Keep at most this many parked packets; beyond it, released
     * packets are freed (same backstop as the LambdaEvent pool).
     */
    static constexpr std::size_t maxPoolSize = 4096;
    static constexpr std::size_t initialFreeListCapacity = 256;

  private:
    friend void releasePacket(Packet *pkt);

    /** Called by releasePacket when the last PacketPtr drops. */
    void release(Packet *pkt);

    std::vector<Packet *> free_;
    /** Monotonic trace-id source; ids are never reused on recycle. */
    std::uint64_t nextTraceId_ = 0;
    std::uint64_t heapAllocs_ = 0;
    std::uint64_t inFlight_ = 0;
    std::uint64_t peakInFlight_ = 0;
    std::uint64_t callbackSpills_ = 0;
};

/**
 * Pool-aware factory: mint from @p pool when one is wired, else fall
 * back to the heap (unit tests construct components without a pool).
 */
inline PacketPtr
allocPacket(PacketPool *pool, MemCmd cmd, Addr paddr, unsigned size,
            Requestor req, Asid asid = 0)
{
    return pool != nullptr ? pool->make(cmd, paddr, size, req, asid)
                           : Packet::make(cmd, paddr, size, req, asid);
}

} // namespace bctrl

#endif // BCTRL_MEM_PACKET_POOL_HH
