#include "mem/backing_store.hh"

#include <cstring>

#include "sim/logging.hh"

namespace bctrl {

BackingStore::BackingStore(Addr size)
    : size_(roundUp(size, pageSize))
{
    panic_if(size_ == 0, "backing store of size zero");
}

void
BackingStore::checkRange(Addr addr, Addr len) const
{
    panic_if(addr + len > size_ || addr + len < addr,
             "physical access [0x%llx, +%llu) outside memory of size "
             "0x%llx",
             (unsigned long long)addr, (unsigned long long)len,
             (unsigned long long)size_);
}

BackingStore::Page &
BackingStore::pageFor(Addr addr)
{
    Addr ppn = pageNumber(addr);
    ++pageLookups_;
    if (ppn == mruPpn_ && mruPage_ != nullptr) {
        ++mruHits_;
        return *mruPage_;
    }
    auto it = pages_.find(ppn);
    if (it == pages_.end()) {
        auto page = std::make_unique<Page>();
        page->fill(0);
        it = pages_.emplace(ppn, std::move(page)).first;
    }
    // Sole allocation site: refreshing the MRU entry here is what
    // keeps a cached "absent" (nullptr) entry from going stale.
    mruPpn_ = ppn;
    mruPage_ = it->second.get();
    return *mruPage_;
}

const BackingStore::Page *
BackingStore::pageForConst(Addr addr) const
{
    Addr ppn = pageNumber(addr);
    ++pageLookups_;
    if (ppn == mruPpn_) {
        ++mruHits_;
        return mruPage_;
    }
    auto it = pages_.find(ppn);
    mruPpn_ = ppn;
    mruPage_ = it == pages_.end() ? nullptr : it->second.get();
    return mruPage_;
}

std::uint8_t *
BackingStore::pageData(Addr addr)
{
    checkRange(addr, 1);
    return pageFor(addr).data();
}

const std::uint8_t *
BackingStore::pageDataIfResident(Addr addr) const
{
    checkRange(addr, 1);
    const Page *page = pageForConst(addr);
    return page != nullptr ? page->data() : nullptr;
}

void
BackingStore::read(Addr addr, void *dst, Addr len) const
{
    checkRange(addr, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    while (len > 0) {
        Addr off = pageOffset(addr);
        Addr chunk = std::min(len, pageSize - off);
        if (const Page *page = pageForConst(addr))
            std::memcpy(out, page->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
BackingStore::write(Addr addr, const void *src, Addr len)
{
    checkRange(addr, len);
    const auto *in = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        Addr off = pageOffset(addr);
        Addr chunk = std::min(len, pageSize - off);
        std::memcpy(pageFor(addr).data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

std::uint64_t
BackingStore::read64(Addr addr) const
{
    std::uint64_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
BackingStore::write64(Addr addr, std::uint64_t value)
{
    write(addr, &value, sizeof(value));
}

std::uint8_t
BackingStore::read8(Addr addr) const
{
    std::uint8_t v = 0;
    read(addr, &v, sizeof(v));
    return v;
}

void
BackingStore::write8(Addr addr, std::uint8_t value)
{
    write(addr, &value, sizeof(value));
}

void
BackingStore::zero(Addr addr, Addr len)
{
    checkRange(addr, len);
    while (len > 0) {
        Addr off = pageOffset(addr);
        Addr chunk = std::min(len, pageSize - off);
        // Only touch pages that exist; absent pages already read as zero.
        auto it = pages_.find(pageNumber(addr));
        if (it != pages_.end())
            std::memset(it->second->data() + off, 0, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace bctrl
