/**
 * @file
 * Unit tests for the discrete-event queue and clock-domain helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_queue.hh"

using namespace bctrl;

namespace {

class CountingEvent : public Event
{
  public:
    explicit CountingEvent(std::vector<int> &log, int id,
                           int priority = Event::defaultPriority)
        : Event(priority), log_(log), id_(id)
    {}

    void process() override { log_.push_back(id_); }

  private:
    std::vector<int> &log_;
    int id_;
};

} // namespace

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ProcessesEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> log;
    CountingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&b, 200);
    eq.schedule(&a, 100);
    eq.schedule(&c, 300);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 300u);
}

TEST(EventQueue, EqualTickEventsRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    CountingEvent a(log, 1), b(log, 2), c(log, 3);
    eq.schedule(&a, 50);
    eq.schedule(&b, 50);
    eq.schedule(&c, 50);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityBreaksTiesBeforeInsertionOrder)
{
    EventQueue eq;
    std::vector<int> log;
    CountingEvent low(log, 1, Event::statsPriority);
    CountingEvent high(log, 2, Event::coherencePriority);
    eq.schedule(&low, 10);
    eq.schedule(&high, 10);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, DescheduleSquashesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    CountingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue eq;
    std::vector<int> log;
    CountingEvent a(log, 1), b(log, 2);
    eq.schedule(&a, 10);
    eq.schedule(&b, 20);
    eq.reschedule(&a, 30);
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, RescheduledEventRunsExactlyOnce)
{
    EventQueue eq;
    std::vector<int> log;
    CountingEvent a(log, 1);
    eq.schedule(&a, 10);
    eq.reschedule(&a, 15);
    eq.reschedule(&a, 25);
    eq.run();
    EXPECT_EQ(log.size(), 1u);
}

TEST(EventQueue, LambdaEventsFireAndAreOwnedByQueue)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleLambda([&fired]() { ++fired; }, 5);
    eq.scheduleLambda([&fired]() { ++fired; }, 7);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 10)
            eq.scheduleLambda(chain, eq.curTick() + 1);
    };
    eq.scheduleLambda(chain, 0);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.curTick(), 9u);
}

TEST(EventQueue, RunWithMaxTickStops)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleLambda([&]() { ++fired; }, 10);
    eq.scheduleLambda([&]() { ++fired; }, 1000);
    eq.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.scheduleLambda([]() {}, 100);
    eq.run();
    CountingEvent *ev = nullptr;
    std::vector<int> log;
    CountingEvent real(log, 1);
    ev = &real;
    EXPECT_DEATH(eq.schedule(ev, 50), "in the past");
}

TEST(EventQueue, EventsProcessedCountIsAccurate)
{
    EventQueue eq;
    for (int i = 0; i < 25; ++i)
        eq.scheduleLambda([]() {}, i * 3);
    eq.run();
    EXPECT_EQ(eq.eventsProcessed(), 25u);
}

TEST(Clocked, CyclesToTicksAndBack)
{
    EventQueue eq;
    Clocked clk(eq, 1'429); // 700 MHz
    EXPECT_EQ(clk.clockPeriod(), 1'429u);
    EXPECT_EQ(clk.cyclesToTicks(10), 14'290u);
    EXPECT_EQ(clk.curCycle(), 0u);
}

TEST(Clocked, NextCycleTickAlignsUp)
{
    EventQueue eq;
    Clocked clk(eq, 1'000);
    eq.scheduleLambda([]() {}, 1'500);
    eq.run();
    EXPECT_EQ(eq.curTick(), 1'500u);
    EXPECT_EQ(clk.nextCycleTick(), 2'000u);
    EXPECT_EQ(clk.clockEdge(3), 5'000u);
}

TEST(Clocked, NextCycleTickOnEdgeStaysPut)
{
    EventQueue eq;
    Clocked clk(eq, 1'000);
    eq.scheduleLambda([]() {}, 2'000);
    eq.run();
    EXPECT_EQ(clk.nextCycleTick(), 2'000u);
}

TEST(EventQueue, DeterministicAcrossRuns)
{
    auto run_once = []() {
        EventQueue eq;
        std::vector<int> log;
        for (int i = 0; i < 100; ++i) {
            eq.scheduleLambda([&log, i]() { log.push_back(i); },
                              (i * 37) % 50);
        }
        eq.run();
        return log;
    };
    EXPECT_EQ(run_once(), run_once());
}


namespace {

/**
 * Reference model for the ladder property tests: the classic single
 * binary heap with squash-on-pop semantics that the ladder replaced.
 * Keys are (when, priority, insertion sequence), one sequence counter
 * for every schedule in push order: same-tick, same-priority events
 * fire first-in first-out, exactly the EventQueue's documented order.
 */
class RefModel
{
  public:
    void
    schedule(int id, Tick when, int priority)
    {
        auto &st = state_[id];
        st.scheduled = true;
        st.seq = nextSeq_++;
        heap_.push(Ref{when, priority, st.seq, id});
    }

    void deschedule(int id) { state_[id].scheduled = false; }

    /** Pop the next live entry; -1 when drained. */
    int
    pop(Tick &when_out)
    {
        while (!heap_.empty()) {
            Ref r = heap_.top();
            heap_.pop();
            auto &st = state_[r.id];
            if (!st.scheduled || st.seq != r.seq)
                continue; // squashed or superseded
            st.scheduled = false;
            when_out = r.when;
            return r.id;
        }
        return -1;
    }

  private:
    struct Ref {
        Tick when;
        int priority;
        std::uint64_t seq;
        int id;
    };
    struct After {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };
    struct State {
        bool scheduled = false;
        std::uint64_t seq = 0;
    };
    std::priority_queue<Ref, std::vector<Ref>, After> heap_;
    std::map<int, State> state_;
    std::uint64_t nextSeq_ = 0;
};

/** Deterministic xorshift generator for the property tests. */
class TestRng
{
  public:
    explicit TestRng(std::uint64_t seed) : x_(seed | 1) {}

    std::uint64_t
    next()
    {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        return x_;
    }

    std::uint64_t operator()(std::uint64_t bound) { return next() % bound; }

  private:
    std::uint64_t x_;
};

} // namespace

/**
 * The core ladder property: under random schedule / deschedule /
 * reschedule interleavings whose deltas cover the active window, the
 * ladder buckets, and the far-future overflow heap, the ladder fires
 * events in exactly the reference heap's (tick, priority, sequence)
 * order. Runs in lockstep so a divergence pinpoints its op.
 */
TEST(EventQueueLadder, RandomInterleavingsMatchReferenceHeap)
{
    constexpr int numEvents = 48;
    constexpr int numOps = 20000;

    EventQueue eq;
    RefModel ref;
    TestRng rng(0x5eed0123);

    std::vector<int> log;
    std::vector<std::unique_ptr<CountingEvent>> events;
    for (int i = 0; i < numEvents; ++i) {
        // Fixed per-event priorities exercise the intra-tick ordering.
        events.push_back(std::make_unique<CountingEvent>(
            log, i, (i % 3) - 1));
    }

    // Delta spreads: inside the 4096-tick active window, across ladder
    // buckets, and past the ~2.1us ladder span into the overflow heap.
    const Tick spreads[] = {1, 4'096, 300'000, 3'000'000, 40'000'000};

    auto randomDelta = [&]() { return rng(spreads[rng(5)]) + rng(3); };

    for (int op = 0; op < numOps; ++op) {
        const std::uint64_t kind = rng(10);
        const int id = static_cast<int>(rng(numEvents));
        Event *ev = events[id].get();
        if (kind < 4) {
            if (!ev->scheduled()) {
                const Tick when = eq.curTick() + randomDelta();
                eq.schedule(ev, when);
                ref.schedule(id, when, ev->priority());
            }
        } else if (kind < 6) {
            if (ev->scheduled()) {
                eq.deschedule(ev);
                ref.deschedule(id);
            }
        } else if (kind < 7) {
            if (ev->scheduled()) {
                const Tick when = eq.curTick() + randomDelta();
                eq.reschedule(ev, when);
                ref.deschedule(id);
                ref.schedule(id, when, ev->priority());
            }
        } else {
            const std::size_t before = log.size();
            const bool ran = eq.step();
            Tick ref_when = 0;
            const int ref_id = ref.pop(ref_when);
            if (!ran) {
                ASSERT_EQ(ref_id, -1) << "ladder drained early at op "
                                      << op;
            } else {
                ASSERT_EQ(log.size(), before + 1);
                ASSERT_EQ(log.back(), ref_id) << "order diverged at op "
                                              << op;
                ASSERT_EQ(eq.curTick(), ref_when);
            }
        }
    }

    // Drain both completely; the tails must agree too.
    for (;;) {
        const bool ran = eq.step();
        Tick ref_when = 0;
        const int ref_id = ref.pop(ref_when);
        if (!ran) {
            ASSERT_EQ(ref_id, -1);
            break;
        }
        ASSERT_EQ(log.back(), ref_id);
        ASSERT_EQ(eq.curTick(), ref_when);
    }
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pendingEntries(), 0u);
}

/**
 * Schedules made from inside firing events — the traffic shape of a
 * real run, where components react to each other's events — follow
 * the same reference order, including same-tick follow-ups of either
 * priority that land in the active drain window mid-dispatch.
 */
TEST(EventQueueLadder, NestedSchedulesMatchReferenceFifo)
{
    struct Ctx {
        EventQueue eq;
        RefModel ref;
        TestRng rng{0xfeedbeef};
        std::vector<int> log;
        int nextId = 0;
        int budget = 20000;

        /** Schedule 0-3 children, each of which spawns in turn. */
        void
        spawn()
        {
            // A spread of 1 draws delta 0: a same-tick follow-up.
            const Tick spreads[] = {1, 4'096, 300'000, 3'000'000};
            const int n = static_cast<int>(rng(4));
            for (int i = 0; i < n && budget > 0; ++i, --budget) {
                const Tick when = eq.curTick() + rng(spreads[rng(4)]);
                const int priority = static_cast<int>(rng(3)) - 1;
                const int id = nextId++;
                eq.scheduleLambda(
                    [this, id]() {
                        log.push_back(id);
                        spawn();
                    },
                    when, priority);
                ref.schedule(id, when, priority);
            }
        }
    };
    Ctx ctx;
    for (int i = 0; i < 64; ++i)
        ctx.spawn();

    std::size_t fired = 0;
    for (;;) {
        // Pop the reference first: the event about to fire schedules
        // its children into both models while it runs.
        Tick ref_when = 0;
        const int ref_id = ctx.ref.pop(ref_when);
        const bool ran = ctx.eq.step();
        if (!ran) {
            ASSERT_EQ(ref_id, -1) << "ladder drained early";
            break;
        }
        ++fired;
        ASSERT_EQ(ctx.log.size(), fired);
        ASSERT_EQ(ctx.log.back(), ref_id) << "order diverged at event "
                                          << fired;
        ASSERT_EQ(ctx.eq.curTick(), ref_when);
    }
    EXPECT_EQ(fired, static_cast<std::size_t>(ctx.nextId));
    EXPECT_GT(fired, 10000u);
    EXPECT_TRUE(ctx.eq.empty());
}

/**
 * Same-tick FIFO is load-bearing for bit-identical results: events at
 * one tick run in priority-then-insertion order even when they were
 * inserted across different storage tiers (drain array, overlay,
 * overflow spill) of the ladder.
 */
TEST(EventQueueLadder, SameTickFifoAcrossStorageTiers)
{
    EventQueue eq;
    std::vector<int> log;

    // Far enough ahead to start in the overflow heap, so the entries
    // migrate overflow -> bucket -> drain before firing.
    const Tick t = 3'000'000;
    CountingEvent late(log, 2, Event::statsPriority);
    CountingEvent early(log, 0, Event::coherencePriority);
    CountingEvent mid1(log, 1);
    CountingEvent mid2(log, 10);
    eq.schedule(&late, t);
    eq.schedule(&mid1, t);
    eq.schedule(&mid2, t);
    eq.schedule(&early, t);

    // Same tick again, but scheduled from inside an event at t (lands
    // in the overlay mid-drain).
    eq.scheduleLambda(
        [&eq, &log]() {
            eq.scheduleLambda([&log]() { log.push_back(11); },
                              eq.curTick());
        },
        t);

    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 10, 11, 2}));
}

/**
 * The spill/refill boundary: events right at the ladder horizon go to
 * the overflow heap and must re-enter the ladder in order as the
 * window advances across several full ladder spans.
 */
TEST(EventQueueLadder, FarFutureSpillRefillBoundary)
{
    EventQueue eq;
    std::vector<int> log;

    // One event per region: active window, mid-ladder, exactly at the
    // horizon, one past it, one several spans out, and the maximum
    // spread pair straddling a span multiple.
    const Tick span = Tick(4096) * 512;
    struct Plan {
        int id;
        Tick when;
    };
    const Plan plan[] = {
        {0, 10},          {1, 5'000},        {2, span - 1},
        {3, span},        {4, span + 1},     {5, 3 * span},
        {6, 3 * span + 4096}, {7, 10 * span - 1}, {8, 10 * span},
    };
    std::vector<std::unique_ptr<CountingEvent>> events;
    for (const Plan &p : plan) {
        events.push_back(std::make_unique<CountingEvent>(log, p.id));
        eq.schedule(events.back().get(), p.when);
    }
    eq.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(eq.curTick(), 10 * span);
    EXPECT_TRUE(eq.empty());
}

/**
 * The satellite fix: squashed entries die when their bucket is
 * drained (counted by stalePurged) instead of lingering in pending
 * storage until their tick would have come up.
 */
TEST(EventQueueLadder, SquashedEntriesArePurgedAtBucketDrain)
{
    EventQueue eq;
    std::vector<int> log;

    // A batch of future-bucket timers, all but one descheduled — the
    // classic watchdog re-arm pattern.
    constexpr int n = 16;
    std::vector<std::unique_ptr<CountingEvent>> events;
    for (int i = 0; i < n; ++i) {
        events.push_back(std::make_unique<CountingEvent>(log, i));
        eq.schedule(events[i].get(), 100'000 + i);
    }
    for (int i = 1; i < n; ++i)
        eq.deschedule(events[i].get());

    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.pendingEntries(), static_cast<std::uint64_t>(n));

    eq.run();
    EXPECT_EQ(log, std::vector<int>{0});
    EXPECT_EQ(eq.stalePurged(), static_cast<std::uint64_t>(n - 1));
    EXPECT_EQ(eq.pendingEntries(), 0u);
}

/**
 * Batched unbounded dispatch is an optimization, not a semantic: a
 * run() must produce the same firing order as single-stepping the
 * same schedule.
 */
TEST(EventQueueLadder, BatchedRunMatchesSingleStepping)
{
    auto build = [](EventQueue &eq, std::vector<int> &log,
                    std::vector<std::unique_ptr<CountingEvent>> &evs) {
        TestRng rng(0xabcdef01);
        for (int i = 0; i < 200; ++i) {
            evs.push_back(std::make_unique<CountingEvent>(
                log, i, (i % 3) - 1));
            eq.schedule(evs.back().get(), rng(500'000));
        }
    };

    std::vector<int> batched_log;
    {
        EventQueue eq;
        std::vector<std::unique_ptr<CountingEvent>> evs;
        build(eq, batched_log, evs);
        eq.run();
    }
    std::vector<int> stepped_log;
    {
        EventQueue eq;
        std::vector<std::unique_ptr<CountingEvent>> evs;
        build(eq, stepped_log, evs);
        while (eq.step()) {
        }
    }
    EXPECT_EQ(batched_log, stepped_log);
    EXPECT_EQ(batched_log.size(), 200u);
}
