#include "sim/fault.hh"

#include <sstream>

#include "sim/logging.hh"

namespace bctrl {
namespace fault {

namespace {

const char *const kPointNames[numPoints] = {
    "gpuRequest", "atsResponse", "bccFill",
    "shootdownAck", "dramResponse", "coherenceMsg",
};

const char *const kKindNames[] = {
    "none", "drop", "delay", "duplicate", "corruptPerms", "stuckAt",
};

} // namespace

const char *
pointName(Point p)
{
    const auto i = static_cast<unsigned>(p);
    return i < numPoints ? kPointNames[i] : "unknown";
}

const char *
kindName(Kind k)
{
    const auto i = static_cast<unsigned>(k);
    return i < sizeof(kKindNames) / sizeof(kKindNames[0])
               ? kKindNames[i]
               : "unknown";
}

bool
parsePoint(const std::string &s, Point &out)
{
    for (unsigned i = 0; i < numPoints; ++i) {
        if (s == kPointNames[i]) {
            out = static_cast<Point>(i);
            return true;
        }
    }
    return false;
}

bool
parseKind(const std::string &s, Kind &out)
{
    constexpr unsigned n = sizeof(kKindNames) / sizeof(kKindNames[0]);
    for (unsigned i = 0; i < n; ++i) {
        if (s == kKindNames[i]) {
            out = static_cast<Kind>(i);
            return true;
        }
    }
    return false;
}

FaultEngine::FaultEngine(const FaultPlan &plan)
    : plan_(plan),
      fires_(plan.rules.size(), 0),
      stats_("system.fault"),
      dropsHeld_(stats_.scalar("dropsHeld",
                               "messages currently held as dropped")),
      dropsReleased_(stats_.scalar(
          "dropsReleased", "held messages re-delivered at recovery")),
      poisonedPages_(stats_.scalar(
          "poisonedPages", "frames reachable through corrupted perms")),
      unsafeWrites_(stats_.scalar(
          "unsafeWrites",
          "accelerator writes to poisoned frames that reached DRAM"))
{
    for (std::size_t i = 0; i < plan_.rules.size(); ++i) {
        const Rule &r = plan_.rules[i];
        const auto p = static_cast<unsigned>(r.point);
        panic_if(p >= numPoints, "fault rule %zu has a bad point", i);
        rulesByPoint_[p].push_back(i);
    }
    // Decorrelate the per-point streams with a splitmix-style mix of
    // the plan seed and the point index.
    for (unsigned i = 0; i < numPoints; ++i) {
        rngs_[i] = Random(plan_.seed ^
                          ((i + 1) * 0x9e3779b97f4a7c15ULL));
    }
    for (unsigned i = 0; i < numPoints; ++i) {
        injectedByPoint_[i] = &stats_.scalar(
            std::string("injected.") + kPointNames[i],
            std::string("faults injected at ") + kPointNames[i]);
    }
}

Decision
FaultEngine::decide(Point point, Tick now)
{
    if (!enabled_ || suppress_ != 0)
        return Decision{};
    const auto p = static_cast<unsigned>(point);
    for (std::size_t idx : rulesByPoint_[p]) {
        const Rule &r = plan_.rules[idx];
        if (now < r.windowStart || now > r.windowEnd)
            continue;
        if (fires_[idx] >= r.maxFires)
            continue;
        // The draw itself is part of the deterministic schedule: every
        // in-window crossing consumes exactly one Bernoulli sample
        // from this point's private stream.
        if (!rngs_[p].nextBool(r.rate))
            continue;
        ++fires_[idx];
        ++(*injectedByPoint_[p]);
        return Decision{r.kind, r.delayTicks};
    }
    return Decision{};
}

void
FaultEngine::holdDropped(const char *site, Tick now,
                         std::function<void()> deliver)
{
    held_.push_back(Held{site, now, std::move(deliver)});
    ++dropsHeld_;
}

std::size_t
FaultEngine::heldCount() const
{
    return held_.size();
}

Tick
FaultEngine::oldestHeldTick() const
{
    Tick oldest = tickNever;
    for (const Held &h : held_)
        oldest = std::min(oldest, h.heldAt);
    return oldest;
}

void
FaultEngine::releaseDropped(EventQueue &eq)
{
    // Deliver through the queue, not inline, so a released thunk that
    // itself holds or re-crosses cannot invalidate the iteration; the
    // engine is expected to be disabled by the caller first.
    std::vector<Held> pending;
    pending.swap(held_);
    dropsHeld_ = 0;
    for (Held &h : pending) {
        dropsReleased_ += 1;
        eq.scheduleLambda(
            [deliver = std::move(h.deliver)]() { deliver(); },
            eq.curTick());
    }
}

std::string
FaultEngine::describeHeld() const
{
    std::ostringstream os;
    for (const Held &h : held_) {
        os << "  held: " << h.site << " since tick " << h.heldAt
           << "\n";
    }
    return os.str();
}

void
FaultEngine::notePoisonedPage(Addr ppn, Tick now)
{
    if (poisoned_.emplace(ppn, now).second)
        ++poisonedPages_;
}

bool
FaultEngine::poisoned(Addr ppn, Tick now) const
{
    if (poisoned_.empty())
        return false;
    const auto it = poisoned_.find(ppn);
    return it != poisoned_.end() && it->second <= now;
}

void
FaultEngine::noteUnsafeWrite()
{
    ++unsafeWrites_;
}

bool
FaultEngine::stickAddr(Point point, Addr &addr)
{
    const auto p = static_cast<unsigned>(point);
    if (!stuckValid_[p]) {
        stuckValid_[p] = true;
        stuckValue_[p] = addr;
        return false;
    }
    addr = stuckValue_[p];
    return true;
}

std::uint64_t
FaultEngine::injected(Point point) const
{
    const auto p = static_cast<unsigned>(point);
    return static_cast<std::uint64_t>(injectedByPoint_[p]->value());
}

std::uint64_t
FaultEngine::totalInjected() const
{
    std::uint64_t total = 0;
    for (unsigned i = 0; i < numPoints; ++i)
        total += static_cast<std::uint64_t>(injectedByPoint_[i]->value());
    return total;
}

Watchdog::Watchdog(EventQueue &eq, FaultEngine *engine, Tick interval)
    : Event(Event::statsPriority), eq_(eq), engine_(engine),
      interval_(interval)
{
    panic_if(interval_ == 0, "watchdog interval must be nonzero");
}

void
Watchdog::arm()
{
    lastProgress_ = eq_.progressMarks();
    if (!scheduled())
        eq_.schedule(this, eq_.curTick() + interval_);
}

void
Watchdog::process()
{
    // The workload completed: stand down (schedule no further check)
    // so the queue can drain and System::run can return.
    if (doneProbe_ && doneProbe_())
        return;

    const std::uint64_t marks = eq_.progressMarks();
    const bool stalled = marks == lastProgress_;
    const std::uint64_t outstanding =
        outstandingProbe_ ? outstandingProbe_() : 0;
    const Tick oldestHeld =
        engine_ != nullptr ? engine_->oldestHeldTick() : tickNever;
    const bool heldTooLong = oldestHeld != tickNever &&
                             eq_.curTick() - oldestHeld >= interval_;

    // A quiescent phase with nothing outstanding (pure compute, or the
    // inter-kernel gap) is not a hang; keep watching.
    if (!(stalled && outstanding > 0) && !heldTooLong) {
        lastProgress_ = marks;
        eq_.schedule(this, eq_.curTick() + interval_);
        return;
    }

    hangDetected_ = true;
    hangTick_ = eq_.curTick();

    std::ostringstream os;
    os << "watchdog: no forward progress at tick " << hangTick_
       << " (interval " << interval_ << ")\n"
       << "  progress marks: " << marks << " (unchanged: " << stalled
       << ")\n"
       << "  outstanding requests: " << outstanding << "\n";
    os << "  live events queued: " << eq_.size() << "\n"
       << "  events processed: " << eq_.eventsProcessed() << "\n";
    if (engine_ != nullptr) {
        os << "  faults injected: " << engine_->totalInjected() << "\n"
           << "  dropped messages held: " << engine_->heldCount()
           << "\n"
           << engine_->describeHeld();
    }
    for (const auto &reporter : reporters_)
        os << reporter();
    report_ = os.str();

    // Fail fast: stop the loop so the harness can report and recover
    // (release held drops, drain, collect) instead of spinning.
    eq_.requestStop();
}

} // namespace fault
} // namespace bctrl
