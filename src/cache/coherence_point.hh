/**
 * @file
 * The memory-side coherence point ("null directory") between the CPU
 * cache hierarchy, the accelerator cache hierarchy, and DRAM.
 *
 * It keeps a per-block record of which side may hold the block and in
 * what state (Invalid / Shared / Modified-ownership), recalls blocks
 * from the opposite side on conflicting requests, and enforces the
 * paper's §3.4.3 invariant: an untrusted cache is never granted
 * ownership of a block it only asked to read, and a dirty block
 * requested read-only by the accelerator is first written back to
 * memory so ownership stays with the trusted hierarchy.
 */

#ifndef BCTRL_CACHE_COHERENCE_POINT_HH
#define BCTRL_CACHE_COHERENCE_POINT_HH

#include <unordered_map>
#include <vector>

#include "mem/mem_device.hh"
#include "sim/sim_object.hh"

namespace bctrl {

class Cache;

class CoherencePoint : public SimObject, public MemDevice
{
  public:
    struct Params {
        /** Fixed traversal latency in ticks. */
        Tick latency = 4'000; // 4 ns
        /** Extra latency when a recall from the other side is needed. */
        Tick recallPenalty = 30'000; // 30 ns
        /**
         * Buckets reserved in the block-state map up front. The map
         * grows with every block ever touched, so rehash-on-insert sits
         * directly on the memory hot path; one run of a Rodinia proxy
         * touches tens of thousands of blocks.
         */
        std::size_t reserveBlocks = 1 << 16;
    };

    CoherencePoint(EventQueue &eq, const std::string &name,
                   MemDevice &memory, const Params &params);

    /**
     * Register a trusted (CPU-side) cache to receive recalls. Both
     * levels of a hierarchy may be registered; recalls visit all.
     */
    void addCpuCache(Cache *cache) { cpuCaches_.push_back(cache); }

    /** Backwards-compatible alias for a single trusted cache. */
    void setCpuCache(Cache *cache) { addCpuCache(cache); }

    /** Register the top-level untrusted (accelerator-side) cache. */
    void setAccelCache(Cache *cache) { accelCache_ = cache; }

    /**
     * Deliver accelerator-side recalls as messages @p latency later
     * (one interconnect hop), instead of calling into the accelerator
     * L2 synchronously: the coherence point lives on the host side of
     * the border. Unset (unit tests), recalls stay synchronous.
     */
    void setAccelRecallHop(Tick latency) { accelHopLatency_ = latency; }

    void access(const PacketPtr &pkt) override;

    /** Number of blocks with tracked state (test support). */
    std::size_t trackedBlocks() const { return blocks_.size(); }

    std::uint64_t recalls() const
    {
        return static_cast<std::uint64_t>(recalls_.value());
    }

  private:
    enum class SideState : std::uint8_t { invalid, shared, owned };

    struct BlockState {
        SideState cpu = SideState::invalid;
        SideState accel = SideState::invalid;
    };

    /** Handle a cacheable (block-sized) read fill. */
    bool handleFillRequest(const PacketPtr &pkt, BlockState &st);

    /** Recall a block from every cache on one side. */
    void recallFrom(bool accel_side, Addr addr);

    MemDevice &memory_;
    Params params_;
    std::vector<Cache *> cpuCaches_;
    Cache *accelCache_ = nullptr;
    Tick accelHopLatency_ = 0;
    std::unordered_map<Addr, BlockState> blocks_;

    stats::Scalar &requests_;
    stats::Scalar &recalls_;
    stats::Scalar &demotions_;
};

} // namespace bctrl

#endif // BCTRL_CACHE_COHERENCE_POINT_HH
