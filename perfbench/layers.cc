#include <time.h>

#include <cstdio>
#include <unordered_set>

#include "bc/bcc.hh"
#include "bc/protection_table.hh"
#include "bench.hh"
#include "cache/tags.hh"
#include "sim/event_queue.hh"
#include "vm/tlb.hh"

namespace bctrl::perfbench {

std::int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

/** Keeps replay results observable so the loops are not elided. */
volatile std::uint64_t sink;

constexpr Asid replayAsid = 1;

/** Self-rescheduling event: one chain of the bare queue churn. */
class ChainEvent : public Event
{
  public:
    ChainEvent(EventQueue &eq, std::uint64_t hops, unsigned phase)
        : eq_(eq), left_(hops), phase_(phase)
    {
    }

    void
    process() override
    {
        // The delay mix of a GPU run: same-cycle hand-offs, one- and
        // few-cycle pipeline steps, and DRAM-length waits.
        static constexpr Tick deltas[] = {1429, 1429, 2858, 5716,
                                          14290, 50000, 1429, 0};
        if (--left_ == 0)
            return;
        const Tick d = deltas[(left_ + phase_) % std::size(deltas)];
        eq_.schedule(this, eq_.curTick() + d);
    }

  private:
    EventQueue &eq_;
    std::uint64_t left_;
    unsigned phase_;
};

double
queueChurnNsPerEvent(SpanLog &log)
{
    constexpr unsigned chains = 64;
    constexpr std::uint64_t hops = 20'000;
    EventQueue eq;
    std::vector<std::unique_ptr<ChainEvent>> events;
    for (unsigned c = 0; c < chains; ++c) {
        events.push_back(std::make_unique<ChainEvent>(eq, hops, c));
        eq.schedule(events.back().get(), c);
    }
    const std::uint64_t before = eq.eventsProcessed();
    const std::int64_t t0 = nowNs();
    eq.run();
    const std::int64_t dt = nowNs() - t0;
    const std::uint64_t n = eq.eventsProcessed() - before;
    log.add("replay EventQueue churn", t0, dt,
            std::to_string(n) + " events");
    return n != 0 ? double(dt) / double(n) : 0.0;
}

} // namespace

LayerTimes
replayLayers(const SystemConfig &config, const std::vector<Access> &stream,
             const PageTable &walk_table, std::vector<Addr> ppns,
             SpanLog &log)
{
    LayerTimes t;
    const unsigned cus = config.numCus();

    // TLBs: each CU's accesses through its own L1 TLB, misses through
    // the shared L2 TLB, exactly as the accelerator-side geometry.
    std::vector<Addr> walk_vpns;
    {
        EventQueue eq;
        std::vector<std::unique_ptr<Tlb>> l1;
        for (unsigned c = 0; c < cus; ++c)
            l1.push_back(std::make_unique<Tlb>(
                eq, "replay.l1tlb" + std::to_string(c),
                Tlb::Params{config.l1TlbEntries, 0}));
        Tlb l2(eq, "replay.l2tlb", Tlb::Params{config.l2TlbEntries, 8});
        walk_vpns.reserve(stream.size() / 8);
        const std::int64_t t0 = nowNs();
        for (const Access &a : stream) {
            const Addr vpn = pageNumber(a.vaddr);
            if (l1[a.cu]->lookup(replayAsid, vpn))
                continue;
            const TlbEntry e{replayAsid, vpn, vpn, Perms::readWrite(),
                             false};
            if (!l2.lookup(replayAsid, vpn)) {
                l2.insert(e);
                walk_vpns.push_back(vpn);
            }
            l1[a.cu]->insert(e);
        }
        const std::int64_t dt = nowNs() - t0;
        log.add("replay Tlb::lookup/insert", t0, dt,
                std::to_string(stream.size()) + " accesses");
        t.tlbLookupNs = stream.empty() ? 0 : double(dt) / stream.size();
    }

    // Page walks for every L2-TLB miss of the replay.
    {
        std::uint64_t found = 0;
        const std::int64_t t0 = nowNs();
        for (Addr vpn : walk_vpns)
            found += walk_table.walk(pageBase(vpn)).valid;
        const std::int64_t dt = nowNs() - t0;
        sink = found;
        log.add("replay PageTable::walk", t0, dt,
                std::to_string(walk_vpns.size()) + " walks");
        t.walkNs = walk_vpns.empty() ? 0 : double(dt) / walk_vpns.size();
    }

    // Cache tags: per-CU L1 geometry, misses probing the shared L2.
    {
        std::vector<TagStore> l1;
        for (unsigned c = 0; c < cus; ++c)
            l1.emplace_back(config.gpuL1Size, 4, unsigned(blockSize));
        TagStore l2(config.gpuL2Size(), 8, unsigned(blockSize));
        std::uint64_t probes = 0;
        const std::int64_t t0 = nowNs();
        for (const Access &a : stream) {
            ++probes;
            TagStore &s1 = l1[a.cu];
            if (s1.accessBlock(a.vaddr) != nullptr)
                continue;
            s1.insert(s1.findVictim(a.vaddr), s1.blockAlign(a.vaddr));
            ++probes;
            if (l2.accessBlock(a.vaddr) == nullptr)
                l2.insert(l2.findVictim(a.vaddr), l2.blockAlign(a.vaddr));
        }
        const std::int64_t dt = nowNs() - t0;
        log.add("replay TagStore::accessBlock", t0, dt,
                std::to_string(probes) + " probes");
        t.tagProbeNs = probes != 0 ? double(dt) / double(probes) : 0;
    }

    // Border checks: the recorded PPN stream through a Protection
    // Table that grants every page the run touched.
    BackingStore store(config.physMemBytes);
    const Addr num_ppns = config.physMemBytes / pageSize;
    ProtectionTable table(store, 0, num_ppns);
    // The hook sees a request before the bounds check; only in-bounds
    // pages ever reach the table.
    std::erase_if(ppns, [num_ppns](Addr ppn) { return ppn >= num_ppns; });
    std::unordered_set<Addr> groups;
    for (Addr ppn : ppns) {
        table.setPerms(ppn, Perms::readWrite());
        groups.insert(ppn / config.bccPagesPerEntry);
    }
    {
        std::uint64_t granted = 0;
        const std::int64_t t0 = nowNs();
        for (Addr ppn : ppns)
            granted += table.getPerms(ppn).write;
        const std::int64_t dt = nowNs() - t0;
        sink = granted;
        log.add("replay ProtectionTable::getPerms", t0, dt,
                std::to_string(ppns.size()) + " checks");
        t.ptLookupNs = ppns.empty() ? 0 : double(dt) / ppns.size();
    }
    BorderControlCache::Params bcc_params;
    bcc_params.entries = config.bccEntries;
    bcc_params.pagesPerEntry = config.bccPagesPerEntry;
    {
        // Lookups, filling on a miss; the fills are timed one by one
        // and taken out of the lookup figure.
        BorderControlCache bcc(bcc_params);
        std::uint64_t hits = 0;
        std::int64_t fill_ns = 0;
        const std::int64_t t0 = nowNs();
        for (Addr ppn : ppns) {
            if (bcc.lookup(ppn)) {
                ++hits;
                continue;
            }
            const std::int64_t f0 = nowNs();
            bcc.fill(ppn, table);
            fill_ns += nowNs() - f0;
        }
        const std::int64_t dt = nowNs() - t0;
        sink = hits;
        log.add("replay BorderControlCache::lookup", t0, dt,
                std::to_string(ppns.size()) + " lookups");
        t.bccLookupNs =
            ppns.empty() ? 0 : double(dt - fill_ns) / ppns.size();
    }
    {
        // Fills: refill every group the stream touched from an empty
        // cache until enough fills were timed to average over.
        BorderControlCache bcc(bcc_params);
        std::uint64_t fills = 0;
        const std::int64_t t0 = nowNs();
        while (!groups.empty() && fills < 4096) {
            bcc.invalidateAll();
            for (Addr g : groups) {
                bcc.fill(g * config.bccPagesPerEntry, table);
                ++fills;
            }
        }
        const std::int64_t dt = nowNs() - t0;
        log.add("replay BorderControlCache::fill", t0, dt,
                std::to_string(fills) + " fills");
        t.bccFillNs = fills != 0 ? double(dt) / double(fills) : 0;
    }

    t.queueNsPerEvent = queueChurnNsPerEvent(log);
    return t;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

bool
writeChromeTrace(const SpanLog &log, std::int64_t t0_ns,
                 const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const SpanLog::Span &s : log.spans()) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"detail\":\"%s\"}}",
                     first ? "" : ",", jsonEscape(s.name).c_str(), s.tid,
                     double(s.startNs - t0_ns) / 1e3,
                     double(s.durNs) / 1e3, jsonEscape(s.detail).c_str());
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace bctrl::perfbench
