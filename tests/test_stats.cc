/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "config/system_builder.hh"
#include "sim/stats.hh"

using namespace bctrl::stats;

TEST(Stats, ScalarAccumulates)
{
    StatGroup g("test");
    Scalar &s = g.scalar("count", "a counter");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    ++s;
    s += 4.5;
    EXPECT_DOUBLE_EQ(s.value(), 5.5);
    s = 2.0;
    EXPECT_DOUBLE_EQ(s.value(), 2.0);
}

TEST(Stats, ScalarReset)
{
    StatGroup g("test");
    Scalar &s = g.scalar("count", "a counter");
    s += 10;
    g.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionTracksMoments)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", "latencies");
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
    EXPECT_DOUBLE_EQ(d.sum(), 60.0);
}

TEST(Stats, DistributionWeightedSamples)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", "latencies");
    d.sample(5, 4);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(Stats, EmptyDistributionIsZero)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", "latencies");
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Stats, FormulaEvaluatesOnDemand)
{
    StatGroup g("test");
    Scalar &hits = g.scalar("hits", "hits");
    Scalar &misses = g.scalar("misses", "misses");
    Formula &ratio =
        g.formula("missRatio", "miss ratio", [&]() {
            double total = hits.value() + misses.value();
            return total == 0 ? 0.0 : misses.value() / total;
        });
    EXPECT_DOUBLE_EQ(ratio.value(), 0.0);
    hits += 3;
    misses += 1;
    EXPECT_DOUBLE_EQ(ratio.value(), 0.25);
}

TEST(Stats, FindLocatesByFullName)
{
    StatGroup g("unit");
    g.scalar("alpha", "first");
    const Stat *found = g.find("unit.alpha");
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->desc(), "first");
    EXPECT_EQ(g.find("unit.beta"), nullptr);
}

TEST(Stats, FindRecursesIntoChildren)
{
    StatGroup parent("sys");
    StatGroup child("sys.cache");
    child.scalar("hits", "cache hits");
    parent.addChild(&child);
    EXPECT_NE(parent.find("sys.cache.hits"), nullptr);
}

TEST(Stats, PrintProducesOneLinePerScalar)
{
    StatGroup g("p");
    g.scalar("a", "one") += 1;
    g.scalar("b", "two") += 2;
    std::ostringstream os;
    g.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("p.a"), std::string::npos);
    EXPECT_NE(out.find("p.b"), std::string::npos);
    EXPECT_NE(out.find("# one"), std::string::npos);
}

TEST(Stats, ResetRecursesIntoChildren)
{
    StatGroup parent("sys");
    StatGroup child("sys.x");
    Scalar &s = child.scalar("v", "value");
    parent.addChild(&child);
    s += 9;
    parent.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionStdev)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", "latencies");
    // Classic textbook set: population standard deviation exactly 2.
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_NEAR(d.stdev(), 2.0, 1e-9);
}

TEST(Stats, DistributionStdevDegenerateCases)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", "latencies");
    EXPECT_DOUBLE_EQ(d.stdev(), 0.0); // empty
    d.sample(42);
    EXPECT_DOUBLE_EQ(d.stdev(), 0.0); // one sample
    // A constant stream must not go negative under the sqrt through
    // floating-point cancellation.
    StatGroup g2("test2");
    Distribution &c = g2.distribution("lat", "latencies");
    for (int i = 0; i < 1000; ++i)
        c.sample(1e9 + 0.1);
    EXPECT_NEAR(c.stdev(), 0.0, 1e-3);
}

TEST(Stats, DistributionPrintIncludesStdev)
{
    StatGroup g("p");
    Distribution &d = g.distribution("lat", "latencies");
    d.sample(1);
    d.sample(3);
    std::ostringstream os;
    g.print(os);
    EXPECT_NE(os.str().find("p.lat::stdev"), std::string::npos);
}

TEST(Stats, HistogramBucketEdges)
{
    // Bucket 0 is [0, 1) and absorbs negative samples; bucket i >= 1
    // is [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(-5.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(0.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(0.99), 0u);
    EXPECT_EQ(Histogram::bucketOf(1.0), 1u);
    EXPECT_EQ(Histogram::bucketOf(2.0), 2u);
    EXPECT_EQ(Histogram::bucketOf(3.0), 2u);
    EXPECT_EQ(Histogram::bucketOf(4.0), 3u);
    EXPECT_EQ(Histogram::bucketOf(1023.0), 10u);
    EXPECT_EQ(Histogram::bucketOf(1024.0), 11u);

    EXPECT_DOUBLE_EQ(Histogram::bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(1), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(1), 2.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(11), 1024.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(11), 2048.0);

    // Every bucket's upper edge is the next bucket's lower edge.
    for (unsigned i = 0; i + 1 < Histogram::numBuckets; ++i)
        EXPECT_DOUBLE_EQ(Histogram::bucketHigh(i),
                         Histogram::bucketLow(i + 1));
}

TEST(Stats, HistogramTracksMoments)
{
    StatGroup g("test");
    Histogram &h = g.histogram("lat", "latencies");
    h.sample(10);
    h.sample(20, 2);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 50.0);
    EXPECT_DOUBLE_EQ(h.min(), 10.0);
    EXPECT_DOUBLE_EQ(h.max(), 20.0);
    EXPECT_EQ(h.buckets()[Histogram::bucketOf(10)], 1u);
    EXPECT_EQ(h.buckets()[Histogram::bucketOf(20)], 2u);
}

TEST(Stats, HistogramConstantStreamPercentilesAreExact)
{
    StatGroup g("test");
    Histogram &h = g.histogram("lat", "latencies");
    for (int i = 0; i < 100; ++i)
        h.sample(7.0);
    // Interpolation is clamped to [min, max], so a constant stream
    // reports the constant for every percentile.
    EXPECT_DOUBLE_EQ(h.p50(), 7.0);
    EXPECT_DOUBLE_EQ(h.p95(), 7.0);
    EXPECT_DOUBLE_EQ(h.p99(), 7.0);
}

TEST(Stats, HistogramPercentilesAreOrderedAndBracketed)
{
    StatGroup g("test");
    Histogram &h = g.histogram("lat", "latencies");
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_LE(h.min(), h.p50());
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
    EXPECT_LE(h.p99(), h.max());
    // Any percentile is exact to within its landing bucket's width:
    // the true median 500 lands in [256, 512).
    EXPECT_GE(h.p50(), 256.0);
    EXPECT_LT(h.p50(), 512.0);
}

TEST(Stats, HistogramEmptyAndReset)
{
    StatGroup g("test");
    Histogram &h = g.histogram("lat", "latencies");
    EXPECT_DOUBLE_EQ(h.p99(), 0.0);
    h.sample(100, 5);
    ASSERT_GT(h.count(), 0u);
    g.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.p50(), 0.0);
    for (std::uint64_t b : h.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(Stats, FormulaResetIsIntentionallyEmpty)
{
    StatGroup g("test");
    Scalar &in = g.scalar("in", "input");
    Formula &f = g.formula("twice", "2x input",
                           [&]() { return 2.0 * in.value(); });
    in += 3;
    EXPECT_DOUBLE_EQ(f.value(), 6.0);
    // Resetting the group clears the input; the formula has no state
    // of its own and just follows.
    g.reset();
    EXPECT_DOUBLE_EQ(f.value(), 0.0);
}

TEST(Stats, JsonNumberRendering)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-7.0), "-7");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    // JSON has no NaN/Inf; they degrade to 0 rather than poisoning
    // the document.
    EXPECT_EQ(jsonNumber(std::nan("")), "0");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "0");
}

TEST(Stats, JsonQuoteEscapes)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonQuote("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(jsonQuote(std::string("nul\x01", 4)), "\"nul\\u0001\"");
}

namespace {

std::string
fullStatsJson(const bctrl::System &sys)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

std::string
simStatsJson(const bctrl::System &sys)
{
    std::ostringstream os;
    sys.dumpSimStatsJson(os);
    return os.str();
}

bctrl::SystemConfig
tinyStatsConfig()
{
    bctrl::SystemConfig cfg;
    cfg.safety = bctrl::SafetyModel::borderControlBcc;
    cfg.physMemBytes = 512ULL * 1024 * 1024;
    return cfg;
}

} // namespace

TEST(Stats, EventQueueInternalsExportedToJson)
{
    bctrl::System sys(tinyStatsConfig());
    sys.run("uniform");
    const std::string doc = fullStatsJson(sys);
    // The one event queue exports its ladder internals flat.
    for (const char *stat :
         {"stalePurged", "pendingEntries", "overflowSpills"}) {
        const std::string key =
            std::string("\"system.eventq.") + stat + "\":";
        EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
    }
    // Host-side storage diagnostics stay out of the sim-only dump.
    EXPECT_EQ(simStatsJson(sys).find("system.eventq"),
              std::string::npos);
}

TEST(Stats, PrintJsonEmitsFlatObject)
{
    StatGroup parent("sys");
    StatGroup child("sys.cache");
    parent.scalar("ticks", "ticks") += 5;
    Histogram &h = child.histogram("lat", "latency");
    h.sample(16);
    parent.addChild(&child);

    std::ostringstream os;
    parent.printJson(os);
    const std::string doc = os.str();
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
    EXPECT_NE(doc.find("\"sys.ticks\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"sys.cache.lat\":{"), std::string::npos);
    EXPECT_NE(doc.find("\"p95\":16"), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\":["), std::string::npos);
    // No trailing comma before a closing brace anywhere.
    EXPECT_EQ(doc.find(",}"), std::string::npos);
    EXPECT_EQ(doc.find(",]"), std::string::npos);
}
