/**
 * @file
 * Functional backing store for simulated physical memory.
 *
 * Pages are allocated sparsely on first touch, so simulating a 4 GB
 * physical address space costs host memory only for pages actually
 * written. Page tables, Protection Tables, and workload data all live
 * here, which lets tests verify end-to-end data integrity.
 */

#ifndef BCTRL_MEM_BACKING_STORE_HH
#define BCTRL_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "sim/types.hh"

namespace bctrl {

class BackingStore
{
  public:
    /** @param size total physical memory in bytes (page aligned). */
    explicit BackingStore(Addr size);

    Addr size() const { return size_; }
    Addr numPages() const { return pageNumber(size_); }

    /** Functional read of @p len bytes at physical @p addr. */
    void read(Addr addr, void *dst, Addr len) const;

    /** Functional write of @p len bytes at physical @p addr. */
    void write(Addr addr, const void *src, Addr len);

    /** Read a little-endian 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    std::uint8_t read8(Addr addr) const;
    void write8(Addr addr, std::uint8_t value);

    /** Zero-fill @p len bytes starting at @p addr. */
    void zero(Addr addr, Addr len);

    /** Number of host-resident simulated pages (for tests). */
    std::size_t residentPages() const { return pages_.size(); }

    /**
     * Raw byte storage of the page containing @p addr, allocating a
     * zeroed page if absent. The pointer stays valid for the store's
     * lifetime (pages are never freed or moved), so hot structures
     * like the ProtectionTable may cache it across accesses.
     */
    std::uint8_t *pageData(Addr addr);

    /** Like pageData, but nullptr if the page was never touched. */
    const std::uint8_t *pageDataIfResident(Addr addr) const;

    /** Page lookups through read/write/pageData (MRU stats). */
    std::uint64_t pageLookups() const { return pageLookups_; }
    /** Lookups answered by the last-page MRU cache, no hashing. */
    std::uint64_t mruHits() const { return mruHits_; }

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    /** @return the page for @p addr, allocating a zeroed one if absent. */
    Page &pageFor(Addr addr);
    /** @return the page for @p addr or nullptr if never touched. */
    const Page *pageForConst(Addr addr) const;

    void checkRange(Addr addr, Addr len) const;

    Addr size_;
    mutable std::unordered_map<Addr, std::unique_ptr<Page>> pages_;

    /**
     * Last-page MRU cache in front of the hash map: streaming access
     * touches the same page for (pageSize / request) consecutive
     * lookups, so remembering one (ppn, page) pair removes the hash
     * from the hot path. mruPage_ == nullptr records "absent" so
     * untouched pages keep reading as zero without allocating; every
     * allocation goes through pageFor, which refreshes the entry, and
     * pages are never freed, so the cache cannot go stale.
     */
    mutable Addr mruPpn_ = ~Addr(0);
    mutable Page *mruPage_ = nullptr;
    mutable std::uint64_t pageLookups_ = 0;
    mutable std::uint64_t mruHits_ = 0;
};

} // namespace bctrl

#endif // BCTRL_MEM_BACKING_STORE_HH
