#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/contracts.hh"
#include "sim/host_profiler.hh"

namespace bctrl {

namespace {
/**
 * Initial reservations. A typical run keeps a few hundred events in
 * flight; reserving up front avoids the first several doublings of the
 * drain/overflow vectors on every System construction.
 */
constexpr std::size_t initialDrainCapacity = 1024;
constexpr std::size_t initialOverflowCapacity = 256;

/**
 * Free-list pools larger than this are trimmed by deleting returned
 * events instead of parking them, bounding idle memory after a burst.
 */
constexpr std::size_t maxLambdaPool = 4096;
} // namespace

EventQueue::EventQueue()
{
    drain_.reserve(initialDrainCapacity);
    buckets_.resize(numBuckets);
    std::vector<Entry> storage;
    storage.reserve(initialOverflowCapacity);
    overflow_ = std::priority_queue<Entry, std::vector<Entry>,
                                    EntryAfter>(EntryAfter{},
                                                std::move(storage));
}

EventQueue::~EventQueue()
{
    // Drain every storage tier, deleting queue-owned lambda events that
    // never fired. Externally owned events are left to their owners.
    auto destroyEntry = [](const Entry &e) {
        if (e.ownedLambda())
            delete e.event;
    };
    for (std::size_t i = drainPos_; i < drain_.size(); ++i)
        destroyEntry(drain_[i]);
    for (const std::vector<Entry> &bucket : buckets_)
        for (const Entry &e : bucket)
            destroyEntry(e);
    while (!overflow_.empty()) {
        destroyEntry(overflow_.top());
        overflow_.pop();
    }
    for (LambdaEvent *ev : lambdaPool_)
        delete ev;
}

LambdaEvent *
EventQueue::acquireLambda(LambdaFn fn, int priority)
{
    if (lambdaPool_.empty()) {
        ++lambdaAllocs_;
        return new LambdaEvent(std::move(fn), priority);
    }
    LambdaEvent *ev = lambdaPool_.back();
    lambdaPool_.pop_back();
    ev->rearm(std::move(fn), priority);
    return ev;
}

void
EventQueue::recycleLambda(Event *ev)
{
    auto *lev = static_cast<LambdaEvent *>(ev);
    if (lambdaPool_.size() >= maxLambdaPool) {
        delete lev;
        return;
    }
    // Release captured state (shared_ptrs, references) now, not at the
    // next reuse; callers rely on callback destruction after firing.
    lev->disarm();
    lambdaPool_.push_back(lev);
}

void
EventQueue::push(Event *ev, Tick when, bool owned_lambda)
{
    panic_if(when < curTick_,
             "scheduling event '%s' in the past (%llu < %llu)",
             ev->name().c_str(), (unsigned long long)when,
             (unsigned long long)curTick_);
    // No-double-schedule: a scheduled event fires exactly once, and
    // only then may it be scheduled again; a second ladder entry for
    // the same event would fire its callback twice.
    BCTRL_ASSERT_MSG(!ev->scheduled_,
                     "event '%s' pushed while already scheduled",
                     ev->name().c_str());
    // The packed word needs the priority to fit its 16-bit field and
    // the sequence its 47 bits; both hold by construction (priorities
    // are small enum-scale ints, 2^47 schedules is out of reach).
    BCTRL_ASSERT(ev->priority() >= -(1 << 15) &&
                 ev->priority() < (1 << 15));
    ev->scheduled_ = true;
    ev->when_ = when;
    ++liveEvents_;
    insertEntry(Entry{when,
                      packPrioSeq(ev->priority(), nextSequence_++,
                                  owned_lambda),
                      ev});
}

void
EventQueue::insertEntry(const Entry &e)
{
    if (e.when < activeEnd_) {
        // Inside (or before) the active window: merge into the sorted
        // pending tail of the drain array. The tail is a handful of
        // entries, so the shift is cheaper than heap maintenance and
        // dispatch stays a branch-free array walk. An entry keyed
        // before the current head (same tick, lower priority value)
        // lands at drainPos_ and correctly runs next.
        const auto it = std::upper_bound(drain_.begin() + drainPos_,
                                         drain_.end(), e, EntryBefore{});
        drain_.insert(it, e);
    } else if (e.when < horizon_) {
        buckets_[bucketIndexOf(e.when)].push_back(e);
        ++ladderCount_;
    } else {
        ++overflowSpills_;
        overflow_.push(e);
    }
}

bool
EventQueue::advanceWindow()
{
    BCTRL_ASSERT(drainPos_ >= drain_.size());
    drain_.clear();
    drainPos_ = 0;
    for (;;) {
        if (ladderCount_ == 0) {
            if (overflow_.empty())
                return false;
            // The ladder is empty: rebase the window directly at the
            // next overflow tick instead of stepping bucket by bucket
            // across a potentially huge gap (watchdog-only idle).
            const Tick w = overflow_.top().when;
            const Tick window_start = (w >> bucketBits) << bucketBits;
            activeIdx_ = bucketIndexOf(w);
            activeEnd_ = window_start + bucketWidth;
            horizon_ = window_start + ladderSpan;
        } else {
            activeIdx_ = (activeIdx_ + 1) & (numBuckets - 1);
            activeEnd_ += bucketWidth;
            horizon_ += bucketWidth;
        }
        // Refill: overflow entries that fell under the advancing
        // horizon belong in the just-freed tail buckets.
        while (!overflow_.empty() && overflow_.top().when < horizon_) {
            const Entry &e = overflow_.top();
            buckets_[bucketIndexOf(e.when)].push_back(e);
            ++ladderCount_;
            overflow_.pop();
        }
        std::vector<Entry> &bucket = buckets_[activeIdx_];
        if (!bucket.empty()) {
            // Load the bucket as the sorted drain array. Swap storage
            // so vector capacities circulate between the drain array
            // and the buckets instead of reallocating every window.
            drain_.swap(bucket);
            ladderCount_ -= drain_.size();
            std::sort(drain_.begin(), drain_.end(), EntryBefore{});
            return true;
        }
    }
}

void
EventQueue::execute(const Entry &e)
{
    Event *ev = e.event;
    panic_if(e.when < curTick_, "event time ran backwards");
    // Fire-exactly-once contract: the entry about to execute is the
    // event's one pending schedule.
    BCTRL_ASSERT_MSG(ev->scheduled_ && ev->when_ == e.when &&
                         ev->when_ >= curTick_,
                     "event '%s' fired at tick %llu but is "
                     "scheduled for %llu",
                     ev->name().c_str(), (unsigned long long)e.when,
                     (unsigned long long)ev->when_);
    BCTRL_ASSERT(liveEvents_ > 0);
    curTick_ = e.when;
    ev->scheduled_ = false;
    --liveEvents_;
    ++processed_;
    if (profiler_ != nullptr) {
        // The eventLoop slot wraps every callback: it is the
        // denominator for events/sec and the 100% reference the
        // per-component inclusive slots are read against.
        HostProfiler::Scope scope(profiler_,
                                  HostProfiler::Slot::eventLoop);
        ev->process();
    } else {
        ev->process();
    }
    if (e.ownedLambda())
        recycleLambda(ev);
}

bool
EventQueue::serviceOne(Tick maxTick)
{
    // The head is the drain cursor, once a nonempty bucket is loaded.
    if (drainPos_ >= drain_.size() && !advanceWindow())
        return false;
    // Copy: process() may grow drain_ and invalidate a reference into
    // it.
    const Entry e = drain_[drainPos_];
    if (e.when > maxTick)
        return false;
    ++drainPos_;
    execute(e);
    return true;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    panic_if(ev->scheduled_, "event '%s' is already scheduled",
             ev->name().c_str());
    push(ev, when, false);
}

void
EventQueue::scheduleLambda(LambdaFn fn, Tick when, int priority)
{
    push(acquireLambda(std::move(fn), priority), when, true);
}

bool
EventQueue::step()
{
    return serviceOne(tickNever);
}

Tick
EventQueue::run(Tick maxTick)
{
    stopRequested_ = false;
    if (maxTick == tickNever) {
        // Batched dispatch: System::run() always runs unbounded, so
        // the common case skips the per-event maxTick compare and
        // dispatches straight off the sorted drain array — no
        // comparisons against other storage tiers at all.
        while (!stopRequested_) {
            if (drainPos_ < drain_.size()) {
                // Copy: process() may grow drain_ and invalidate a
                // reference into it.
                const Entry e = drain_[drainPos_++];
                execute(e);
                continue;
            }
            if (!advanceWindow())
                break;
        }
    } else {
        while (!stopRequested_ && serviceOne(maxTick)) {
        }
    }
    return curTick_;
}

} // namespace bctrl
