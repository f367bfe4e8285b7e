/**
 * @file
 * Memory request packets exchanged between devices.
 *
 * A Packet carries one read, write, or writeback. The address is
 * physical except on datapaths that translate at the border (the full
 * IOMMU and CAPI-like configurations), where packets start out virtual.
 *
 * Lifetime model: Packets are intrusively ref-counted and handed
 * around as PacketPtr. Steady-state packets come from a per-System
 * PacketPool (mem/packet_pool.hh) and return to its free list when the
 * last PacketPtr drops; `Packet::make` is the pool-less heap fallback
 * used by unit tests and standalone harnesses. The response callback
 * is a fixed-capacity InlineFunction so delivering a response never
 * heap-allocates (oversized captures still work but are counted as
 * spills in the allocation profile).
 */

#ifndef BCTRL_MEM_PACKET_HH
#define BCTRL_MEM_PACKET_HH

#include <cstdint>
#include <string>
#include <utility>

#include "mem/addr.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace bctrl {

enum class MemCmd : std::uint8_t {
    Read,       ///< demand read (also used for cache fills)
    Write,      ///< demand write (write-through traffic)
    Writeback,  ///< eviction of a dirty block
};

/**
 * Identifies the agent a packet originated from, for coherence and for
 * Border Control's trusted/untrusted distinction.
 */
enum class Requestor : std::uint8_t {
    cpu,        ///< trusted CPU core
    accelerator, ///< the untrusted accelerator (GPU)
    trustedHw,  ///< trusted hardware: page walker, Border Control itself
};

struct Packet;
class PacketPtr;
class PacketPool;

/**
 * Why an access was denied at a safety checkpoint. `perms` is the
 * classic R/W page-permission miss; the rest are capability-policy
 * violations (no-share, read-once replay, per-ASID quota) checked by
 * Border Control after the permission bits pass.
 */
enum class ViolationKind : std::uint8_t {
    none = 0,
    perms,
    noShare,
    readOnceReplay,
    quotaExceeded,
};

const char *violationKindName(ViolationKind kind);

/** Return a dead Packet to its pool, or free it (pool-less fallback). */
void releasePacket(Packet *pkt);

/**
 * Inline capacity of Packet::onResponse. Sized for the measured
 * worst-case hot capture: the GPU issue path stores [self, done] where
 * `done` is a std::function completion token (8 + 32 bytes). Growing a
 * capture past this is functional but heap-spills, which the
 * allocation profile counts and the perf allocation-ceiling test
 * rejects.
 */
constexpr std::size_t packetCallbackCapacity = 48;

struct Packet {
    using Callback = InlineFunction<void(Packet &), packetCallbackCapacity>;

    MemCmd cmd = MemCmd::Read;
    /** Physical address (valid unless isVirtual). */
    Addr paddr = 0;
    /** Virtual address, kept for translate-at-border datapaths. */
    Addr vaddr = 0;
    /** True while the packet still needs translation. */
    bool isVirtual = false;
    unsigned size = blockSize;
    Asid asid = 0;
    Requestor requestor = Requestor::cpu;
    /** Tick the original requestor issued this packet. */
    Tick issuedAt = 0;
    /**
     * Called exactly once when the response (or write ack) arrives.
     * Null for fire-and-forget traffic.
     */
    Callback onResponse;
    /** Set if a safety mechanism denied the access. */
    bool denied = false;
    /** When denied: which policy the access violated. */
    ViolationKind violation = ViolationKind::none;
    /**
     * The request was issued down a mispredicted (speculative) path
     * and will be squashed, never committed. Safety models gate fills
     * and side effects on this bit; the leaky baseline ignores it.
     */
    bool speculative = false;
    /**
     * For cache fill reads: the requester intends to write, so it asks
     * the coherence point for an exclusive (writable) copy.
     */
    bool needsWritable = false;
    /**
     * Set by the coherence point on the response path: whether the
     * filled block may be held in a writable state. Never true for an
     * untrusted requestor that asked read-only (paper §3.4.3).
     */
    bool grantedWritable = false;
    /**
     * Contract bookkeeping: set by respondAt() when the onResponse
     * callback is delivered, checked (under BCTRL_ASSERT) to enforce
     * the responded-exactly-once contract. Always present so the
     * struct layout does not depend on the contracts configuration.
     */
    bool responded = false;
    /**
     * Border Control's parallel read check (§3.4.1): when nonzero, the
     * response callback may not run before this tick. respondAt()
     * consumes it by adding the extra delivery hop the check requires.
     */
    Tick responseGateTick = 0;
    /**
     * Stable identity for trace correlation: assigned by the pool at
     * make() (never recycled with the packet), 0 for heap-fallback
     * packets. Purely observational — no simulated behavior reads it.
     */
    std::uint64_t traceId = 0;
    /**
     * Return-trip latency owed by the response: set to the crossing
     * latency by the first CrossDomainPort on the request path (zero
     * until then, and forever for traffic that never leaves its side
     * of the interconnect). respondAt() adds it to the delivery tick,
     * so a crossing is charged once each way.
     */
    Tick returnHop = 0;
    /** Intrusive reference count; managed by PacketPtr only. */
    std::uint32_t refCount = 0;
    /** Owning pool, or null for heap-fallback packets. */
    PacketPool *pool = nullptr;

    bool isRead() const { return cmd == MemCmd::Read; }
    bool isWrite() const { return cmd != MemCmd::Read; }
    bool isWriteback() const { return cmd == MemCmd::Writeback; }

    Addr blockAddr() const { return blockAlign(paddr); }
    Addr pageNum() const { return pageNumber(paddr); }

    std::string toString() const;

    /** Convenience factory (heap fallback; prefer a PacketPool). */
    static PacketPtr make(MemCmd cmd, Addr paddr, unsigned size,
                          Requestor req, Asid asid = 0);
};

/**
 * Intrusive smart pointer over Packet. Copy = refcount bump; the last
 * owner returns the packet to its pool (or the heap). Deliberately
 * minimal: no weak references, no aliasing, no custom deleters.
 */
class PacketPtr
{
  public:
    constexpr PacketPtr() noexcept = default;
    constexpr PacketPtr(std::nullptr_t) noexcept {}

    /** Adopt a raw packet (factory use); bumps the refcount. */
    explicit PacketPtr(Packet *pkt) noexcept : pkt_(pkt)
    {
        if (pkt_ != nullptr)
            ++pkt_->refCount;
    }

    PacketPtr(const PacketPtr &other) noexcept : pkt_(other.pkt_)
    {
        if (pkt_ != nullptr)
            ++pkt_->refCount;
    }

    PacketPtr(PacketPtr &&other) noexcept : pkt_(other.pkt_)
    {
        other.pkt_ = nullptr;
    }

    PacketPtr &
    operator=(const PacketPtr &other) noexcept
    {
        PacketPtr(other).swap(*this);
        return *this;
    }

    PacketPtr &
    operator=(PacketPtr &&other) noexcept
    {
        PacketPtr(std::move(other)).swap(*this);
        return *this;
    }

    PacketPtr &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    ~PacketPtr() { reset(); }

    void
    reset() noexcept
    {
        if (pkt_ != nullptr && --pkt_->refCount == 0)
            releasePacket(pkt_);
        pkt_ = nullptr;
    }

    void
    swap(PacketPtr &other) noexcept
    {
        Packet *tmp = pkt_;
        pkt_ = other.pkt_;
        other.pkt_ = tmp;
    }

    Packet *get() const noexcept { return pkt_; }
    Packet &operator*() const noexcept { return *pkt_; }
    Packet *operator->() const noexcept { return pkt_; }
    explicit operator bool() const noexcept { return pkt_ != nullptr; }

    /** Current refcount (tests/diagnostics). */
    std::uint32_t
    useCount() const noexcept
    {
        return pkt_ != nullptr ? pkt_->refCount : 0;
    }

    friend bool
    operator==(const PacketPtr &a, const PacketPtr &b) noexcept
    {
        return a.pkt_ == b.pkt_;
    }
    friend bool
    operator!=(const PacketPtr &a, const PacketPtr &b) noexcept
    {
        return a.pkt_ != b.pkt_;
    }
    friend bool
    operator==(const PacketPtr &a, std::nullptr_t) noexcept
    {
        return a.pkt_ == nullptr;
    }
    friend bool
    operator!=(const PacketPtr &a, std::nullptr_t) noexcept
    {
        return a.pkt_ != nullptr;
    }

  private:
    Packet *pkt_ = nullptr;
};

} // namespace bctrl

#endif // BCTRL_MEM_PACKET_HH
