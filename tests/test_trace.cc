/**
 * @file
 * Tests for the request-lifecycle tracing subsystem: flag parsing and
 * gating, packet-id correlation across components, Chrome-trace JSON
 * well-formedness, and — the load-bearing guarantee — that tracing is
 * purely observational: enabling it changes no simulated result, and
 * with it disabled (the default) a warm System still allocates nothing
 * on the hot path. The TraceOverhead suite backs the ctest
 * `perf_trace_overhead` (label "perf").
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "config/system_builder.hh"
#include "sim/fault.hh"
#include "sim/trace.hh"

using namespace bctrl;

namespace {

SystemConfig
tracedConfig(std::uint32_t mask, bool host_profile = false)
{
    SystemConfig cfg;
    cfg.safety = SafetyModel::borderControlBcc;
    cfg.profile = GpuProfile::moderatelyThreaded;
    cfg.workloadScale = 1;
    cfg.traceMask = mask;
    cfg.hostProfile = host_profile;
    return cfg;
}

/**
 * A minimal recursive-descent JSON validator: accepts exactly the
 * RFC 8259 grammar (objects, arrays, strings with escapes, numbers,
 * true/false/null) and rejects everything else — enough to prove the
 * writers emit documents Perfetto's parser will load.
 */
class JsonValidator
{
  public:
    explicit JsonValidator(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        pos_ = 0;
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    bool
    string()
    {
        if (text_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                const char e = text_[pos_];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                    }
                } else if (std::string("\"\\/bfnrt").find(e) ==
                           std::string::npos) {
                    return false;
                }
            }
            ++pos_;
        }
        return false; // unterminated
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        std::size_t digits = 0;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
            ++digits;
        }
        if (digits == 0) {
            pos_ = start;
            return false;
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return false;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_])))
                return false;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        return true;
    }

    bool
    value()
    {
        skipWs();
        if (pos_ >= text_.size())
            return false;
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return false;
                ++pos_;
                if (!value())
                    return false;
                skipWs();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                if (text_[pos_] != ',')
                    return false;
                ++pos_;
            }
        }
        if (c == '[') {
            ++pos_;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                if (!value())
                    return false;
                skipWs();
                if (pos_ >= text_.size())
                    return false;
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                if (text_[pos_] != ',')
                    return false;
                ++pos_;
            }
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace

TEST(Trace, ParseFlagsAcceptsNamesAndAll)
{
    std::uint32_t mask = 0;
    EXPECT_TRUE(trace::parseFlags("BCC,ProtTable", mask, nullptr));
    EXPECT_EQ(mask,
              static_cast<std::uint32_t>(trace::Flag::BCC) |
                  static_cast<std::uint32_t>(trace::Flag::ProtTable));

    mask = 0;
    EXPECT_TRUE(trace::parseFlags("all", mask, nullptr));
    EXPECT_EQ(mask, trace::allFlags);

    mask = 0;
    EXPECT_TRUE(trace::parseFlags(" Cache , DRAM ", mask, nullptr));
    EXPECT_EQ(mask,
              static_cast<std::uint32_t>(trace::Flag::Cache) |
                  static_cast<std::uint32_t>(trace::Flag::DRAM));
}

TEST(Trace, ParseFlagsRejectsUnknownNames)
{
    std::uint32_t mask = 0;
    std::string err;
    EXPECT_FALSE(trace::parseFlags("BCC,Bogus", mask, &err));
    EXPECT_NE(err.find("Bogus"), std::string::npos);
    // The error lists the valid names so the CLI message is actionable.
    EXPECT_NE(err.find("ProtTable"), std::string::npos);
}

TEST(Trace, FlagNamesRoundTripThroughParse)
{
    for (trace::Flag f :
         {trace::Flag::BCC, trace::Flag::ProtTable,
          trace::Flag::Coherence, trace::Flag::TLB, trace::Flag::DRAM,
          trace::Flag::Cache, trace::Flag::PacketLife}) {
        std::uint32_t mask = 0;
        ASSERT_TRUE(trace::parseFlags(trace::flagName(f), mask, nullptr))
            << trace::flagName(f);
        EXPECT_EQ(mask, static_cast<std::uint32_t>(f));
    }
}

TEST(Trace, TracerGatesRecordsOnMask)
{
    trace::Tracer tracer(static_cast<std::uint32_t>(trace::Flag::BCC));
    EXPECT_TRUE(tracer.enabled(trace::Flag::BCC));
    EXPECT_FALSE(tracer.enabled(trace::Flag::Cache));

    tracer.record(trace::Flag::BCC, "system.bc", "bccHit", 100, 15);
    tracer.record(trace::Flag::Cache, "system.cache", "hit", 200, 5);
    ASSERT_EQ(tracer.size(), 1u);
    EXPECT_EQ(tracer.records()[0].flag, trace::Flag::BCC);
    EXPECT_STREQ(tracer.records()[0].event, "bccHit");
}

TEST(Trace, EmitIsNoOpWithoutTracer)
{
    EventQueue eq;
    ASSERT_EQ(eq.tracer(), nullptr);
    // Must not crash or record anywhere: the off path is one branch.
    trace::emit(eq, trace::Flag::BCC, "c", "e", 1, 2, 3, 4);
}

TEST(Trace, SystemRunRecordsOnlyMaskedFlags)
{
    System sys(tracedConfig(
        static_cast<std::uint32_t>(trace::Flag::BCC) |
        static_cast<std::uint32_t>(trace::Flag::ProtTable)));
    ASSERT_NE(sys.tracer(), nullptr);
    sys.run("uniform");

    ASSERT_GT(sys.tracer()->size(), 0u);
    bool saw_bcc = false;
    for (const trace::Record &r : sys.tracer()->records()) {
        const bool masked = r.flag == trace::Flag::BCC ||
                            r.flag == trace::Flag::ProtTable;
        ASSERT_TRUE(masked) << "record under unmasked flag "
                            << trace::flagName(r.flag);
        saw_bcc = saw_bcc || r.flag == trace::Flag::BCC;
    }
    EXPECT_TRUE(saw_bcc);
}

TEST(Trace, PacketIdsCorrelateAcrossComponents)
{
    System sys(tracedConfig(trace::allFlags));
    sys.run("uniform");

    // One request's pool-assigned trace id must show up in records from
    // more than one component — that is the whole point of the id.
    std::map<std::uint64_t, std::set<std::string>> components;
    for (const trace::Record &r : sys.tracer()->records())
        if (r.packetId != 0)
            components[r.packetId].insert(r.component);

    ASSERT_FALSE(components.empty());
    std::size_t multi = 0;
    for (const auto &[id, comps] : components)
        if (comps.size() >= 2)
            ++multi;
    EXPECT_GT(multi, 0u)
        << "no packet id was ever seen by two components";
}

TEST(Trace, ChromeTraceIsWellFormedJson)
{
    System sys(tracedConfig(trace::allFlags));
    sys.run("uniform");
    ASSERT_GT(sys.tracer()->size(), 0u);

    std::ostringstream os;
    sys.tracer()->writeChromeTrace(os, 1, "uniform bc-bcc");
    const std::string doc = os.str();

    EXPECT_EQ(doc.rfind("{\"traceEvents\":", 0), 0u);
    JsonValidator v(doc);
    EXPECT_TRUE(v.valid()) << "Chrome-trace output is not valid JSON";
    // Perfetto keys every lane on these metadata records.
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
}

TEST(Trace, ChromeTraceFragmentMergesAcrossRuns)
{
    // The sweep driver merges per-run fragments into one document with
    // a distinct pid per run; the merged result must still parse.
    System a(tracedConfig(
        static_cast<std::uint32_t>(trace::Flag::Cache)));
    System b(tracedConfig(
        static_cast<std::uint32_t>(trace::Flag::DRAM)));
    a.run("uniform");
    b.run("stream");

    std::ostringstream merged;
    merged << "{\"traceEvents\":[";
    a.tracer()->writeChromeTraceEvents(merged, 1, "run a");
    merged << ",";
    b.tracer()->writeChromeTraceEvents(merged, 2, "run b");
    merged << "]}";

    const std::string doc = merged.str();
    JsonValidator v(doc);
    EXPECT_TRUE(v.valid()) << "merged two-run trace is not valid JSON";
    EXPECT_NE(doc.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"pid\":2"), std::string::npos);
}

TEST(Trace, TextSinkWritesOneLinePerRecord)
{
    trace::Tracer tracer(trace::allFlags);
    tracer.record(trace::Flag::Cache, "system.l2", "miss", 1000, 250,
                  42, 0x1000);
    tracer.record(trace::Flag::DRAM, "system.mem", "read", 1250, 80,
                  42, 0x1000);

    std::ostringstream os;
    tracer.writeText(os);
    const std::string text = os.str();
    std::size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, 2u);
    EXPECT_NE(text.find("system.l2"), std::string::npos);
    EXPECT_NE(text.find("pkt=42"), std::string::npos);
}

TEST(Trace, StatsJsonExportIsWellFormed)
{
    System sys(tracedConfig(0));
    sys.run("uniform");
    std::ostringstream os;
    sys.dumpStatsJson(os);
    const std::string doc = os.str();

    JsonValidator v(doc);
    EXPECT_TRUE(v.valid()) << "dumpStatsJson is not valid JSON";
    // The new latency histograms export percentile fields.
    EXPECT_NE(doc.find("\"system.bc.checkLatencyBccHit\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"p99\""), std::string::npos);
}

TEST(Trace, HostProfilerAttributesEventLoopTime)
{
    System sys(tracedConfig(0, /*host_profile=*/true));
    ASSERT_NE(sys.hostProfiler(), nullptr);
    sys.run("uniform");

    const HostProfiler &prof = *sys.hostProfiler();
    // Every processed event passes through the eventLoop slot, so its
    // call count matches the queue's own counter exactly.
    EXPECT_EQ(prof.calls(HostProfiler::Slot::eventLoop),
              sys.eventQueue().eventsProcessed());
    EXPECT_GT(prof.calls(HostProfiler::Slot::borderControl), 0u);
    EXPECT_GT(prof.calls(HostProfiler::Slot::cache), 0u);
    EXPECT_GE(prof.seconds(HostProfiler::Slot::eventLoop), 0.0);
}

// ---------------------------------------------------------------------
// TraceOverhead: the determinism and zero-cost contract behind keeping
// tracing compiled in. Backs the `perf_trace_overhead` ctest.

TEST(TraceOverhead, DisabledRunsAreBitIdentical)
{
    RunResult first;
    std::uint64_t first_events = 0;
    for (int i = 0; i < 2; ++i) {
        System sys(tracedConfig(0));
        RunResult r = sys.run("uniform");
        if (i == 0) {
            first = r;
            first_events = sys.eventQueue().eventsProcessed();
            continue;
        }
        EXPECT_EQ(r.runtimeTicks, first.runtimeTicks);
        EXPECT_EQ(r.gpuCycles, first.gpuCycles);
        EXPECT_EQ(r.memOps, first.memOps);
        EXPECT_EQ(r.translations, first.translations);
        EXPECT_EQ(sys.eventQueue().eventsProcessed(), first_events);
    }
}

TEST(TraceOverhead, EnablingTracingChangesNoSimulatedResult)
{
    System off(tracedConfig(0));
    System on(tracedConfig(trace::allFlags, /*host_profile=*/true));
    RunResult r_off = off.run("uniform");
    RunResult r_on = on.run("uniform");

    ASSERT_GT(on.tracer()->size(), 0u);
    EXPECT_EQ(r_on.runtimeTicks, r_off.runtimeTicks);
    EXPECT_EQ(r_on.gpuCycles, r_off.gpuCycles);
    EXPECT_EQ(r_on.memOps, r_off.memOps);
    EXPECT_EQ(r_on.translations, r_off.translations);
    EXPECT_EQ(r_on.pageWalks, r_off.pageWalks);
    EXPECT_EQ(r_on.borderRequests, r_off.borderRequests);
    EXPECT_EQ(r_on.bccHits, r_off.bccHits);
    EXPECT_EQ(r_on.bccMisses, r_off.bccMisses);
    EXPECT_EQ(r_on.violations, r_off.violations);
    EXPECT_EQ(r_on.dramBytes, r_off.dramBytes);
    EXPECT_EQ(on.eventQueue().eventsProcessed(),
              off.eventQueue().eventsProcessed());
}

/**
 * Tracing and host profiling work in every configuration, chaos runs
 * included, and stay purely observational there too: the simulated
 * state of a run under an active FaultPlan is byte-identical with and
 * without them.
 */
TEST(TraceOverhead, TracingUnderActiveFaultPlanChangesNoSimulatedState)
{
    const auto chaosConfig = [](std::uint32_t mask, bool host_profile) {
        SystemConfig cfg = tracedConfig(mask, host_profile);
        cfg.faultPlan.rules = {
            fault::Rule{fault::Point::dramResponse, fault::Kind::delay,
                        0.05, 30'000},
            fault::Rule{fault::Point::gpuRequest, fault::Kind::duplicate,
                        0.02},
            fault::Rule{fault::Point::coherenceMsg,
                        fault::Kind::duplicate, 0.02},
        };
        cfg.faultPlan.watchdogInterval = 50'000'000;
        return cfg;
    };
    System off(chaosConfig(0, false));
    System on(chaosConfig(trace::allFlags, /*host_profile=*/true));
    ASSERT_NE(on.faultEngine(), nullptr);
    ASSERT_NE(on.watchdog(), nullptr);
    const RunResult r_off = off.run("uniform");
    const RunResult r_on = on.run("uniform");

    EXPECT_GT(r_on.faultsInjected, 0u);
    EXPECT_FALSE(r_on.hung);
    ASSERT_GT(on.tracer()->size(), 0u);
    ASSERT_NE(on.hostProfiler(), nullptr);
    EXPECT_EQ(on.hostProfiler()->calls(HostProfiler::Slot::eventLoop),
              on.eventQueue().eventsProcessed());

    std::ostringstream sim_off;
    std::ostringstream sim_on;
    off.dumpSimStats(sim_off);
    on.dumpSimStats(sim_on);
    EXPECT_EQ(sim_on.str(), sim_off.str());
    EXPECT_EQ(r_on.runtimeTicks, r_off.runtimeTicks);
    EXPECT_EQ(r_on.faultsInjected, r_off.faultsInjected);
    EXPECT_EQ(on.eventQueue().eventsProcessed(),
              off.eventQueue().eventsProcessed());
}

TEST(TraceOverhead, DisabledTracingAddsNoAllocations)
{
    // Tracing is compiled into every hot path; with the runtime switch
    // off a warm System must still mint nothing from the heap (the
    // same ceiling AllocationProfile enforces for the seed build).
    System sys(tracedConfig(0));
    auto workload = makeWorkload("uniform", 1, 1);
    ASSERT_NE(workload, nullptr);
    Process &proc = sys.kernel().createProcess();
    workload->setup(proc);

    sys.run(*workload, proc);
    sys.run(*workload, proc);
    const std::uint64_t warm_packets = sys.packetPool().heapAllocations();
    const std::uint64_t warm_lambdas =
        sys.eventQueue().lambdaAllocations();
    const std::uint64_t warm_spills = sys.eventQueue().lambdaSpills() +
                                      sys.packetPool().callbackSpills();

    RunResult r = sys.run(*workload, proc);
    EXPECT_GT(r.memOps, 0u);
    EXPECT_EQ(sys.packetPool().heapAllocations() - warm_packets, 0u);
    EXPECT_EQ(sys.eventQueue().lambdaAllocations() - warm_lambdas, 0u);
    EXPECT_EQ(sys.eventQueue().lambdaSpills() +
                  sys.packetPool().callbackSpills() - warm_spills,
              0u);
}
