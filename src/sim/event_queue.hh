/**
 * @file
 * A global-order event queue for discrete-event simulation.
 *
 * One queue drives a whole simulated System. Events are ordered by
 * (tick, priority, insertion sequence); equal-tick events of equal
 * priority therefore run first-in first-out, which keeps every
 * simulation reproducible for a given seed and configuration.
 *
 * Storage is a tick-bucketed ladder (calendar) queue rather than a
 * single binary heap: the near-horizon ticks that dominate simulation
 * traffic get O(1) amortized insert and batched, comparison-free
 * dispatch, while far-future events (watchdog timers, attack
 * injectors) spill to a small fallback heap. See DESIGN.md §14 for the
 * bucket geometry and the proof sketch that the ladder preserves the
 * exact order of the classic heap.
 */

#ifndef BCTRL_SIM_EVENT_QUEUE_HH
#define BCTRL_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace bctrl {

class EventQueue;
class HostProfiler;

namespace trace {
class Tracer;
} // namespace trace

namespace fault {
class FaultEngine;
class Watchdog;
} // namespace fault

/**
 * Inline capacity of queue-owned lambda callbacks. Sized for the
 * measured worst-case hot capture: the GPU TLB-hit issue path stores a
 * proceed closure (this + cu + WorkItem + std::function done) plus a
 * TlbEntry, ~120 bytes. A larger capture does not compile (see
 * InlineFunction).
 */
constexpr std::size_t lambdaCallbackCapacity = 160;

/** The queue's callback type: no heap for captures that fit. */
using LambdaFn = InlineFunction<void(), lambdaCallbackCapacity>;

/**
 * Base class for all schedulable events.
 *
 * An Event is owned by whoever constructed it. The queue never deletes
 * it, and a scheduled event fires exactly once: there is no
 * cancellation, so a ladder entry is always its event's current
 * schedule.
 */
class Event
{
  public:
    /** Events with lower priority values run first at equal ticks. */
    enum Priority : int {
        coherencePriority = -10,
        defaultPriority = 0,
        statsPriority = 10,
    };

    explicit Event(int priority = defaultPriority)
        : priority_(priority)
    {}

    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Callback executed when the event's tick is reached. */
    virtual void process() = 0;

    /** @return a short description for debugging. */
    virtual std::string name() const { return "event"; }

    /** @return true if this event is currently in a queue. */
    bool scheduled() const { return scheduled_; }

    /** @return the tick at which this event will fire (if scheduled). */
    Tick when() const { return when_; }

    int priority() const { return priority_; }

  protected:
    /**
     * Re-prioritize an event that is not currently scheduled (the
     * LambdaEvent pool recycles events across priorities).
     */
    void
    setPriority(int priority)
    {
        priority_ = priority;
    }

  private:
    friend class EventQueue;

    int priority_;
    bool scheduled_ = false;
    Tick when_ = 0;
};

/**
 * An Event wrapping an inline callable, for one-off callbacks.
 *
 * Unlike plain Event the queue owns a LambdaEvent: after it fires the
 * queue recycles it through a free-list pool, so callers can schedule
 * and forget without paying a heap allocation per callback on the
 * simulation's hottest path. The callback itself is a fixed-capacity
 * LambdaFn, so captures that fit lambdaCallbackCapacity never touch
 * the heap either.
 */
class LambdaEvent : public Event
{
  public:
    explicit LambdaEvent(LambdaFn fn, int priority = defaultPriority)
        : Event(priority), fn_(std::move(fn))
    {}

    void process() override { fn_(); }
    std::string name() const override { return "lambda-event"; }

  private:
    friend class EventQueue;

    /** Re-arm a pooled event with a new callback and priority. */
    void
    rearm(LambdaFn fn, int priority)
    {
        fn_ = std::move(fn);
        setPriority(priority);
    }

    /** Drop the callback (releases captured state while pooled). */
    void disarm() { fn_ = nullptr; }

    LambdaFn fn_;
};

/**
 * The discrete-event queue. One instance drives an entire simulated
 * system; components hold a reference to it.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p ev to fire exactly once at absolute tick @p when
     * (>= curTick). @p ev must not already be scheduled.
     */
    void schedule(Event *ev, Tick when);

    /**
     * Schedule a one-shot callback owned by the queue.
     * @param fn callback to run
     * @param when absolute tick
     * @param priority intra-tick ordering
     */
    void scheduleLambda(LambdaFn fn, Tick when,
                        int priority = Event::defaultPriority);

    /** @return true if no runnable events remain. */
    bool empty() const { return liveEvents_ == 0; }

    /** Number of scheduled events. */
    std::uint64_t size() const { return liveEvents_; }

    /**
     * Run until the queue drains or @p maxTick passes.
     * @return the tick of the last event processed.
     */
    Tick run(Tick maxTick = tickNever);

    /**
     * Execute at most one event.
     * @return false if the queue was empty.
     */
    bool step();

    /** Total events processed since construction. */
    std::uint64_t eventsProcessed() const { return processed_; }

    /**
     * LambdaEvents heap-allocated since construction. With the
     * free-list pool this stays near the peak number of in-flight
     * lambdas rather than growing with every scheduleLambda() call.
     */
    std::uint64_t lambdaAllocations() const { return lambdaAllocs_; }

    /** LambdaEvents currently parked in the free-list pool. */
    std::size_t lambdaPoolSize() const { return lambdaPool_.size(); }

    /**
     * Entries that arrived beyond the ladder horizon and spilled to
     * the overflow heap (far-future timers, idle-gap rebases). High
     * rates mean the ladder span no longer covers steady-state
     * latencies.
     */
    std::uint64_t overflowSpills() const { return overflowSpills_; }

    /**
     * @name Observability hooks
     * Both pointers are null unless the owning System enabled the
     * facility, so the disabled cost at every emit/profile site is a
     * single pointer-load-and-branch. Neither facility ever mutates
     * simulated state: enabling them is bit-identical on RunResults.
     */
    /// @{
    trace::Tracer *tracer() const { return tracer_; }
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }
    HostProfiler *profiler() const { return profiler_; }
    void setProfiler(HostProfiler *profiler) { profiler_ = profiler; }
    /// @}

    /**
     * @name Chaos hooks
     * Fault engine and watchdog follow the tracer contract: null
     * unless the System's FaultPlan is active, so every injection
     * site's disabled cost is one pointer-load-and-branch and the
     * zero-fault path is bit-identical.
     */
    /// @{
    fault::FaultEngine *faultEngine() const { return faultEngine_; }
    void setFaultEngine(fault::FaultEngine *engine)
    {
        faultEngine_ = engine;
    }
    fault::Watchdog *watchdog() const { return watchdog_; }
    void setWatchdog(fault::Watchdog *watchdog) { watchdog_ = watchdog; }

    /**
     * Forward-progress food for the watchdog: response delivery and
     * memory-op retirement call this unconditionally (a bare counter
     * increment; no simulated state is touched).
     */
    void noteProgress() { ++progressMarks_; }
    std::uint64_t progressMarks() const { return progressMarks_; }

    /**
     * Ask run() to return after the current event. Cleared on the
     * next run() entry; used by the watchdog to fail fast on a hang.
     */
    void requestStop() { stopRequested_ = true; }
    bool stopRequested() const { return stopRequested_; }
    /// @}

  private:
    /**
     * A ladder entry: 24 bytes, so bucket traffic stays light. The
     * intra-tick order and the queue-owns-this-lambda flag are packed
     * into one 64-bit word:
     *
     *   [63:48] priority biased by +2^15 (unsigned compare == the
     *           signed priority order)
     *   [47:1]  insertion sequence (unique; 2^47 schedules)
     *   [0]     ownedLambda
     *
     * Because the sequence is unique per entry, comparing the packed
     * word orders by (priority, sequence) and the low bit never
     * decides.
     */
    struct Entry {
        Tick when;
        std::uint64_t prioSeq;
        Event *event;

        bool ownedLambda() const { return (prioSeq & 1) != 0; }
    };

    static std::uint64_t
    packPrioSeq(int priority, std::uint64_t sequence, bool owned_lambda)
    {
        return (static_cast<std::uint64_t>(priority + (1 << 15)) << 48) |
               (sequence << 1) | (owned_lambda ? 1 : 0);
    }

    /** "a after b" ordering, so heaps keep the minimum key on top. */
    struct EntryAfter {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.prioSeq > b.prioSeq;
        }
    };

    /** "a before b" ordering for sorting a drained bucket. */
    struct EntryBefore {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when < b.when;
            return a.prioSeq < b.prioSeq;
        }
    };

    /**
     * @name Ladder geometry
     * Buckets are bucketWidth ticks wide (2^bucketBits; ~3 cycles of
     * the 700 MHz GPU clock) and the ladder spans numBuckets of them
     * (~2.1 us of simulated time), which covers every steady-state
     * component latency; only long timers spill to the overflow heap.
     */
    /// @{
    static constexpr unsigned bucketBits = 12;
    static constexpr Tick bucketWidth = Tick(1) << bucketBits;
    static constexpr std::size_t numBuckets = 512;
    static constexpr Tick ladderSpan = bucketWidth * numBuckets;
    /// @}

    static std::size_t
    bucketIndexOf(Tick when)
    {
        return static_cast<std::size_t>(when >> bucketBits) &
               (numBuckets - 1);
    }

    void push(Event *ev, Tick when, bool owned_lambda);

    /** Place a fully formed entry into ladder storage. */
    void insertEntry(const Entry &e);

    /**
     * Advance the active window until a nonempty bucket is loaded.
     * @return false if no entries remain anywhere in the queue.
     */
    bool advanceWindow();

    /** Execute entry @p e (curTick update, profiler wrap, recycle). */
    void execute(const Entry &e);

    /**
     * Pop and execute the next runnable event at or before @p maxTick.
     * @return true if an event was executed.
     */
    bool serviceOne(Tick maxTick);

    /** Take a LambdaEvent from the pool (or allocate one) and arm it. */
    LambdaEvent *acquireLambda(LambdaFn fn, int priority);

    /** Return a fired queue-owned lambda to the pool. */
    void recycleLambda(Event *ev);

    /** @name Ladder storage */
    /// @{
    /**
     * Sorted entries of the active bucket, drained by index. Entries
     * that arrive inside the active window mid-drain (same-tick
     * follow-ups, response gates) are merged into the pending tail by
     * binary-search insertion: the tail is small (a bucket holds a few
     * events), so one memmove beats maintaining a separate heap, and
     * the dispatch path stays a straight array walk.
     */
    std::vector<Entry> drain_;
    std::size_t drainPos_ = 0;
    /** Future buckets; entries are appended unordered. */
    std::vector<std::vector<Entry>> buckets_;
    /** Entries currently stored in buckets_ (not drain/overlay). */
    std::uint64_t ladderCount_ = 0;
    /** End tick (exclusive) of the active window. */
    Tick activeEnd_ = bucketWidth;
    /** Index of the active bucket. */
    std::size_t activeIdx_ = 0;
    /** Ladder coverage limit: entries at/after this tick overflow. */
    Tick horizon_ = ladderSpan;
    /** Far-future fallback heap (watchdogs, attack timers). */
    std::priority_queue<Entry, std::vector<Entry>, EntryAfter> overflow_;
    /// @}

    Tick curTick_ = 0;
    std::uint64_t nextSequence_ = 0;
    std::uint64_t liveEvents_ = 0;
    std::uint64_t processed_ = 0;
    std::uint64_t overflowSpills_ = 0;
    std::vector<LambdaEvent *> lambdaPool_;
    std::uint64_t lambdaAllocs_ = 0;
    trace::Tracer *tracer_ = nullptr;
    HostProfiler *profiler_ = nullptr;
    fault::FaultEngine *faultEngine_ = nullptr;
    fault::Watchdog *watchdog_ = nullptr;
    std::uint64_t progressMarks_ = 0;
    bool stopRequested_ = false;
};

/**
 * A component with its own clock domain, layered over the global
 * picosecond tick. Provides cycle<->tick conversion and cycle-aligned
 * scheduling helpers.
 */
class Clocked
{
  public:
    /**
     * @param eq the global event queue
     * @param period_ticks clock period in ticks (picoseconds)
     */
    Clocked(EventQueue &eq, Tick period_ticks)
        : eventq_(eq), period_(period_ticks)
    {
        panic_if(period_ == 0, "clock period must be nonzero");
    }

    Tick clockPeriod() const { return period_; }

    /** Current time, in this domain's cycles (rounded down). */
    Cycles curCycle() const { return eventq_.curTick() / period_; }

    /** Convert a cycle count to ticks. */
    Tick cyclesToTicks(Cycles c) const { return c * period_; }

    /** The next tick aligned to this clock edge at or after now. */
    Tick
    nextCycleTick() const
    {
        Tick now = eventq_.curTick();
        Tick rem = now % period_;
        return rem == 0 ? now : now + (period_ - rem);
    }

    /** Absolute tick @p cycles clock edges from now. */
    Tick
    clockEdge(Cycles cycles) const
    {
        return nextCycleTick() + cycles * period_;
    }

    EventQueue &eventQueue() const { return eventq_; }

  private:
    EventQueue &eventq_;
    Tick period_;
};

} // namespace bctrl

#endif // BCTRL_SIM_EVENT_QUEUE_HH
