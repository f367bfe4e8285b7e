/**
 * @file
 * Event-loop throughput microbenchmark: how many events per second
 * the queue core can dispatch when events are nearly free, isolating
 * scheduler cost from component simulation cost.
 *
 * One workload (self-rescheduling chains whose deltas follow the
 * simulator's measured mix), three modes:
 *
 *   serial_heap    - the pre-ladder binary-heap EventQueue, replicated
 *                    in heap_reference.hh and driven through the same
 *                    Event API (virtual dispatch, schedule checks), as
 *                    the oracle for both order and throughput
 *   ladder         - EventQueue via the bounded step() path (per-event
 *                    horizon compare, no batching)
 *   ladder_batched - EventQueue via run() unbounded, the production
 *                    System::run() path
 *
 * Every mode must visit exactly the same (tick, chain) trajectory; the
 * harness cross-checks an order-sensitive checksum so a queue change
 * that reorders events fails here before it fails a sweep.
 *
 * Timing: --repeat N runs N rounds, each round running every mode once
 * back to back, and reports per-mode median and spread. The regression
 * gate (--check, the perf_regression ctest) is the in-process ratio
 * ladder_batched / serial_heap, taken per round and medianed: a noisy
 * shared host slows both modes of a round alike, so the ratio holds
 * where absolute events/s swing by a third between runs. The gate
 * fails when the median ratio falls more than --tolerance below the
 * committed one (BENCH_eventloop.json in the repo root), i.e. when
 * the ladder loses its lead over the heap reference.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "heap_reference.hh"
#include "sim/event_queue.hh"

using namespace bctrl;
using bench::formatDouble;

namespace {

/** Deterministic xorshift, shared by every mode. */
struct Rng {
    std::uint64_t x;
    explicit Rng(std::uint64_t seed) : x(seed | 1) {}
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

/**
 * The simulator's delta mix (ticks are picoseconds, GPU cycle 1429):
 * mostly short in-window and few-bucket hops, occasionally a long
 * timer that spills to the overflow heap / far calendar buckets.
 */
Tick
nextDelta(Rng &rng)
{
    const std::uint64_t r = rng.next();
    const std::uint64_t pick = r % 100;
    if (pick < 45)
        return 1'429 + r % 2'858; // 1-3 GPU cycles
    if (pick < 85)
        return 4'000 + r % 25'000; // a few buckets ahead
    if (pick < 98)
        return 30'000 + r % 250'000; // deep in the ladder
    return 2'000'000 + r % 3'000'000; // past the ladder span
}

struct ChurnSpec {
    int chains = 256;
    std::uint64_t hopsPerChain = 40'000;
    std::uint64_t totalEvents() const
    {
        return static_cast<std::uint64_t>(chains) * hopsPerChain;
    }
};

/** Order-sensitive checksum over the (tick, chain) visit sequence. */
struct Check {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void
    visit(Tick when, int chain)
    {
        h ^= when + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h ^= static_cast<std::uint64_t>(chain);
    }
};

struct Result {
    double seconds = 0;
    std::uint64_t events = 0;
    std::uint64_t checksum = 0;
};

// Host-side wall-clock measurement (never feeds simulated state).
// bclint:allow(nondeterminism)
using BenchClock = std::chrono::steady_clock;

/**
 * A self-rescheduling chain event. Templated
 * over the queue/event types so the identical workload — rng advance,
 * checksum, virtual dispatch — runs through both the production
 * EventQueue and the benchref::HeapQueue oracle.
 */
template <class Queue, class EventBase>
class ChainEventT : public EventBase
{
  public:
    ChainEventT(Queue &queue, Rng rng, std::uint64_t hops, int chain,
                Check &check)
        : queue_(queue), rng_(rng), hopsLeft_(hops), chain_(chain),
          check_(check)
    {}

    void
    process() override
    {
        check_.visit(queue_.curTick(), chain_);
        if (--hopsLeft_ > 0)
            queue_.schedule(this, queue_.curTick() + nextDelta(rng_));
    }

    std::string name() const override { return "chain-event"; }

  private:
    Queue &queue_;
    Rng rng_;
    std::uint64_t hopsLeft_;
    int chain_;
    Check &check_;
};

using ChainEvent = ChainEventT<EventQueue, Event>;
using RefChainEvent = ChainEventT<benchref::HeapQueue, benchref::Event>;

/** Reference mode: the pre-ladder heap design (heap_reference.hh). */
Result
runHeapReference(const ChurnSpec &w)
{
    benchref::HeapQueue hq;
    Check check;
    std::vector<std::unique_ptr<RefChainEvent>> chains;
    for (int c = 0; c < w.chains; ++c) {
        Rng rng(0x1000 + c);
        const Tick first = nextDelta(rng);
        chains.push_back(std::make_unique<RefChainEvent>(
            hq, rng, w.hopsPerChain, c, check));
        hq.schedule(chains.back().get(), first);
    }

    Result res;
    const auto start = BenchClock::now();
    hq.run();
    const std::chrono::duration<double> el = BenchClock::now() - start;
    res.seconds = el.count();
    res.events = hq.eventsProcessed();
    res.checksum = check.h;
    return res;
}

/**
 * EventQueue solo modes. @p batched picks run() unbounded (the
 * batched production path) vs. step() (per-event peek/pop).
 */
Result
runLadder(const ChurnSpec &w, bool batched)
{
    EventQueue eq;
    Check check;
    std::vector<std::unique_ptr<ChainEvent>> chains;
    for (int c = 0; c < w.chains; ++c) {
        Rng rng(0x1000 + c);
        const Tick first = nextDelta(rng);
        chains.push_back(std::make_unique<ChainEvent>(
            eq, rng, w.hopsPerChain, c, check));
        eq.schedule(chains.back().get(), first);
    }

    Result res;
    const auto start = BenchClock::now();
    if (batched) {
        eq.run();
    } else {
        // step() dispatches one event per call: the full peek/pop
        // path with no batched bucket drain.
        while (eq.step()) {
        }
    }
    const std::chrono::duration<double> el = BenchClock::now() - start;
    res.seconds = el.count();
    res.events = eq.eventsProcessed();
    res.checksum = check.h;
    return res;
}

/**
 * Extract the committed gate ratio (gate.median) from a committed
 * JSON file with a string scan (the schema is flat and written by this
 * harness; a full parser would be overkill for a perf gate).
 */
bool
committedRatio(const std::string &json, double *ratio)
{
    const std::size_t at = json.find("\"gate\":");
    if (at == std::string::npos)
        return false;
    const std::string field = "\"median\":";
    const std::size_t f = json.find(field, at);
    if (f == std::string::npos)
        return false;
    *ratio = std::strtod(json.c_str() + f + field.size(), nullptr);
    return *ratio > 0;
}

/** Median, minimum, and maximum of a nonempty sample. */
struct Spread {
    double median = 0;
    double min = 0;
    double max = 0;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const double median =
        n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    return Spread{median, v.front(), v.back()};
}

} // namespace

int
main(int argc, char **argv)
{
    ChurnSpec w;
    std::string out_path;
    std::string check_path;
    double tolerance = 0.20;
    int repeat = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else if (arg == "--tolerance" && i + 1 < argc) {
            tolerance = std::atof(argv[++i]);
        } else if (arg == "--chains" && i + 1 < argc) {
            w.chains = std::atoi(argv[++i]);
        } else if (arg == "--hops" && i + 1 < argc) {
            w.hopsPerChain = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--chains N] [--hops N] "
                         "[--repeat N] [--out FILE] "
                         "[--check FILE [--tolerance F]]\n",
                         argv[0]);
            return 2;
        }
    }
    if (repeat < 1)
        repeat = 1;

    struct Mode {
        const char *name;
        std::function<Result()> run;
        std::vector<double> seconds;
    };
    Mode modes[] = {
        {"serial_heap", [&] { return runHeapReference(w); }, {}},
        {"ladder", [&] { return runLadder(w, false); }, {}},
        {"ladder_batched", [&] { return runLadder(w, true); }, {}},
    };
    constexpr std::size_t numModes = sizeof(modes) / sizeof(modes[0]);
    Mode &heap = modes[0];
    Mode &batched = modes[2];

    // Interleaved rounds: every mode once per round, the order flipped
    // on alternate rounds so neither end of a round is favoured. Each
    // round yields one batched/heap ratio from runs that saw the same
    // stretch of host load.
    std::uint64_t want = 0;
    std::vector<double> ratios;
    for (int round = 0; round < repeat; ++round) {
        for (std::size_t k = 0; k < numModes; ++k) {
            Mode &m = modes[round % 2 == 0 ? k : numModes - 1 - k];
            const Result r = m.run();
            // Every mode must visit the identical trajectory the heap
            // oracle does (the first mode run fixes the reference).
            if (want == 0)
                want = r.checksum;
            if (r.checksum != want || r.events != w.totalEvents()) {
                std::fprintf(stderr,
                             "FAIL: mode %s diverged from the heap "
                             "oracle (events %llu/%llu, checksum %llx "
                             "vs %llx)\n",
                             m.name, (unsigned long long)r.events,
                             (unsigned long long)w.totalEvents(),
                             (unsigned long long)r.checksum,
                             (unsigned long long)want);
                return 1;
            }
            m.seconds.push_back(r.seconds);
        }
        ratios.push_back(heap.seconds.back() / batched.seconds.back());
    }

    const auto evPerSec = [&w](double seconds) {
        return seconds > 0 ? static_cast<double>(w.totalEvents()) / seconds
                           : 0;
    };
    const Spread ratio = spreadOf(ratios);
    std::printf("%-15s %12s %14s %9s\n", "mode", "events",
                "events/s (p50)", "vs heap");
    Spread spreads[numModes];
    for (std::size_t i = 0; i < numModes; ++i) {
        spreads[i] = spreadOf(modes[i].seconds);
        std::printf("%-15s %12llu %14.0f %8.2fx\n", modes[i].name,
                    (unsigned long long)w.totalEvents(),
                    evPerSec(spreads[i].median),
                    spreads[i].median > 0
                        ? spreads[0].median / spreads[i].median
                        : 0);
    }
    std::printf("gate ladder_batched/serial_heap: median %.3f "
                "(min %.3f, max %.3f) over %d round(s)\n",
                ratio.median, ratio.min, ratio.max, repeat);

    if (!check_path.empty()) {
        std::ifstream in(check_path);
        if (!in) {
            std::fprintf(stderr, "cannot read %s\n", check_path.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        double committed = 0;
        if (!committedRatio(buf.str(), &committed)) {
            std::fprintf(stderr, "FAIL: no gate.median in %s\n",
                         check_path.c_str());
            return 1;
        }
        const double floor = committed * (1.0 - tolerance);
        const bool regressed = ratio.median < floor;
        std::fprintf(stderr,
                     "check: ladder_batched/serial_heap committed %.3f, "
                     "floor %.3f, now %.3f%s\n",
                     committed, floor, ratio.median,
                     regressed ? "  REGRESSED" : "");
        if (regressed) {
            std::fprintf(stderr,
                         "FAIL: the ladder's lead over the heap "
                         "reference fell more than %.0f%% below %s\n",
                         tolerance * 100, check_path.c_str());
            return 1;
        }
    }

    if (!out_path.empty()) {
        std::FILE *f = std::fopen(out_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"schema\": \"bctrl-eventloop-v3\",\n");
        std::fprintf(f, "  \"host\": %s,\n",
                     bench::hostProvenanceJson().c_str());
        std::fprintf(f, "  \"chains\": %d,\n  \"hops\": %llu,\n",
                     w.chains, (unsigned long long)w.hopsPerChain);
        std::fprintf(f, "  \"rounds\": %d,\n", repeat);
        std::fprintf(f, "  \"modes\": {\n");
        for (std::size_t i = 0; i < numModes; ++i) {
            const Spread &sp = spreads[i];
            std::fprintf(
                f,
                "    \"%s\": {\"events\": %llu, \"seconds_p50\": %s, "
                "\"seconds_min\": %s, \"seconds_max\": %s, "
                "\"events_per_sec\": %s}%s\n",
                modes[i].name, (unsigned long long)w.totalEvents(),
                formatDouble(sp.median).c_str(),
                formatDouble(sp.min).c_str(),
                formatDouble(sp.max).c_str(),
                formatDouble(evPerSec(sp.median)).c_str(),
                i + 1 < numModes ? "," : "");
        }
        std::fprintf(f, "  },\n");
        std::fprintf(f,
                     "  \"gate\": {\"ratio\": "
                     "\"ladder_batched/serial_heap\", \"median\": %s, "
                     "\"min\": %s, \"max\": %s}\n}\n",
                     formatDouble(ratio.median).c_str(),
                     formatDouble(ratio.min).c_str(),
                     formatDouble(ratio.max).c_str());
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    }
    return 0;
}
