/**
 * @file
 * Deterministic fault injection at the simulator's trust borders.
 *
 * The paper's premise is that accelerators are buggy or malicious, so
 * the protocol must stay safe under dropped, delayed, duplicated, and
 * corrupted traffic — not just clean runs. A FaultEngine sits behind
 * the EventQueue (same wiring contract as tracing): every border
 * crossing asks fault::decide() whether to perturb the message. With
 * no engine installed the cost is one pointer-load-and-branch and the
 * simulation is bit-identical to a build without this file.
 *
 * Determinism: the engine keeps one seeded bctrl::Random stream per
 * injection point, drawn in discrete-event order, so a (seed, plan,
 * config) triple replays the exact same fault sequence on any
 * platform.
 *
 * The companion Watchdog detects simulated-time hangs (no forward
 * progress while requests are outstanding, or a dropped message held
 * beyond a bound) and stops the event loop with a packet-lifecycle
 * report instead of spinning forever.
 */

#ifndef BCTRL_SIM_FAULT_HH
#define BCTRL_SIM_FAULT_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bctrl {
namespace fault {

/**
 * Named injection points: one per trust/component border a message can
 * cross. Sites consult the engine exactly where the message would be
 * handed to the other side.
 */
enum class Point : unsigned {
    gpuRequest = 0,  ///< accelerator request arriving at Border Control
    atsResponse,     ///< ATS translation response delivered to requester
    bccFill,         ///< Border Control Cache fill from Protection Table
    shootdownAck,    ///< TLB shootdown round acknowledgement
    dramResponse,    ///< DRAM read/write completion
    coherenceMsg,    ///< message entering the coherence point
};

constexpr unsigned numPoints = 6;

/** What the fault does to the crossing message. */
enum class Kind : unsigned {
    none = 0,
    drop,          ///< message vanishes (held by the engine, see below)
    delay,         ///< message delivered delayTicks late
    duplicate,     ///< message delivered twice
    corruptPerms,  ///< permission bits flipped in the payload
    stuckAt,       ///< payload replaced with the first value ever seen
};

const char *pointName(Point p);
const char *kindName(Kind k);
bool parsePoint(const std::string &s, Point &out);
bool parseKind(const std::string &s, Kind &out);

/** One per-point gate: fire with @p rate inside the tick window. */
struct Rule {
    Point point = Point::gpuRequest;
    Kind kind = Kind::none;
    /** Probability a crossing inside the window is perturbed. */
    double rate = 0.0;
    /** Extra delivery latency for Kind::delay. */
    Tick delayTicks = 0;
    /** Inclusive tick window the rule is armed in. */
    Tick windowStart = 0;
    Tick windowEnd = tickNever;
    /** Stop after this many injections (bounds livelock pressure). */
    std::uint64_t maxFires = ~std::uint64_t(0);
};

/**
 * A complete chaos configuration: seed + rules + watchdog cadence.
 * An inactive plan (default) installs neither engine nor watchdog, so
 * the zero-fault path stays bit-identical — including host-side event
 * counts — to a run that never heard of fault injection.
 */
struct FaultPlan {
    std::uint64_t seed = 0x5eedfa0175bcULL;
    std::vector<Rule> rules;
    /**
     * Watchdog check cadence in ticks; 0 disables the watchdog. Must
     * comfortably exceed the longest legitimate progress gap (page
     * fault service is 400k ticks; 20M ticks = 20 µs is safe).
     */
    Tick watchdogInterval = 0;

    bool active() const { return !rules.empty() || watchdogInterval != 0; }
};

/** The verdict decide() hands back to an injection site. */
struct Decision {
    Kind kind = Kind::none;
    Tick delay = 0;
};

/**
 * The per-System fault engine. Owned by System, reached through
 * EventQueue::faultEngine() (null when no plan is active).
 *
 * Drop semantics: a "dropped" message is really held — the site hands
 * the engine a delivery thunk which releaseDropped() re-delivers after
 * the engine is disabled (at watchdog recovery or normal completion).
 * This keeps drops indistinguishable from infinite delay while the
 * plan is live, yet lets caches, MSHRs, and the packet pool drain so
 * teardown contracts and sanitizers stay clean on every chaos run.
 *
 * Ground truth for the safety invariant: when a corrupt-perms fault
 * upgrades a translation, the engine records the poisoned frames;
 * DRAM audits accelerator writes against that set. Any poisoned write
 * reaching DRAM is an unsafe access that escaped the checker.
 */
class FaultEngine
{
  public:
    explicit FaultEngine(const FaultPlan &plan);

    /** Ask whether the crossing at @p point is perturbed at @p now. */
    Decision decide(Point point, Tick now);

    /** Master switch; disabled engines never perturb anything. */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /**
     * Suppress decisions for the current scope. Used when a site
     * re-enters itself to deliver a duplicate, so the copy cannot
     * recursively fault into a duplication storm. Scopes nest; they
     * only ever cover the re-entrant call stack that opened them.
     */
    class Suppressor
    {
      public:
        explicit Suppressor(FaultEngine *engine) : engine_(engine)
        {
            if (engine_ != nullptr)
                ++engine_->suppress_;
        }
        ~Suppressor()
        {
            if (engine_ != nullptr)
                --engine_->suppress_;
        }
        Suppressor(const Suppressor &) = delete;
        Suppressor &operator=(const Suppressor &) = delete;

      private:
        FaultEngine *engine_;
    };

    /** @name Held (dropped) messages */
    /// @{
    /** Hold a dropped message for later re-delivery. */
    void holdDropped(const char *site, Tick now,
                     std::function<void()> deliver);
    std::size_t heldCount() const;
    /** Hold tick of the oldest held message; tickNever when none. */
    Tick oldestHeldTick() const;
    /**
     * Re-deliver every held message on @p eq at its current tick, in
     * hold order; disable the engine first.
     */
    void releaseDropped(EventQueue &eq);
    /** One "site@tick" line per held message (watchdog report). */
    std::string describeHeld() const;
    /// @}

    /** @name Poisoned-translation ground truth */
    /// @{
    void notePoisonedPage(Addr ppn, Tick now);
    /** Is @p ppn known-poisoned as of @p now? */
    bool poisoned(Addr ppn, Tick now) const;
    /** An accelerator write to a poisoned frame reached DRAM. */
    void noteUnsafeWrite();
    std::uint64_t unsafeWrites() const
    {
        return static_cast<std::uint64_t>(unsafeWrites_.value());
    }
    /// @}

    /**
     * Stuck-at payload memory for address-valued points: the first
     * faulted value is captured; later faults replace @p addr with it.
     * @return true if @p addr was replaced.
     */
    bool stickAddr(Point point, Addr &addr);

    std::uint64_t injected(Point point) const;
    std::uint64_t totalInjected() const;
    std::uint64_t dropsReleased() const
    {
        return static_cast<std::uint64_t>(dropsReleased_.value());
    }

    stats::StatGroup &statGroup() { return stats_; }

  private:
    FaultPlan plan_;
    bool enabled_ = true;
    /** Open Suppressor scopes. */
    unsigned suppress_ = 0;

    /**
     * One RNG stream per injection point (seeded from the plan seed
     * and the point index), so adding a rule at one point never
     * shifts the draws of another.
     */
    std::array<Random, numPoints> rngs_;

    /** Rule indices per point, so decide() scans only its own rules. */
    std::array<std::vector<std::size_t>, numPoints> rulesByPoint_;
    std::vector<std::uint64_t> fires_;

    struct Held {
        const char *site;
        Tick heldAt;
        std::function<void()> deliver;
    };
    std::vector<Held> held_;

    /** PPN -> tick the poison was first recorded at. */
    std::unordered_map<Addr, Tick> poisoned_;
    std::array<Addr, numPoints> stuckValue_{};
    std::array<bool, numPoints> stuckValid_{};

    stats::StatGroup stats_;
    std::array<stats::Scalar *, numPoints> injectedByPoint_{};
    stats::Scalar &dropsHeld_;
    stats::Scalar &dropsReleased_;
    stats::Scalar &poisonedPages_;
    stats::Scalar &unsafeWrites_;
};

/**
 * Simulated-time hang detector. Armed only when a FaultPlan asks for
 * it; checks every interval whether response deliveries ("progress
 * marks", fed by EventQueue::noteProgress) advanced. A stall with
 * requests outstanding, or a dropped message held for a full interval,
 * is declared a hang: the watchdog records a packet-lifecycle report
 * and stops the event loop instead of letting the run spin or drain
 * into a silent half-finished state.
 */
class Watchdog : public Event
{
  public:
    Watchdog(EventQueue &eq, FaultEngine *engine, Tick interval);

    /** Start checking; first check one interval from now. */
    void arm();
    /** Stop checking (idempotent). */
    void disarm();

    /** Probe for "requests still outstanding" (e.g. GPU mem ops). */
    void setOutstandingProbe(std::function<std::uint64_t()> probe)
    {
        outstandingProbe_ = std::move(probe);
    }
    /**
     * Probe for "the run is over": once true the watchdog stops
     * rescheduling itself so the event queue can drain. Without it a
     * finished sim would idle forever under an armed watchdog.
     */
    void setDoneProbe(std::function<bool()> probe)
    {
        doneProbe_ = std::move(probe);
    }
    /** Extra report lines (packet pool state, component queues). */
    void addReporter(std::function<std::string()> reporter)
    {
        reporters_.push_back(std::move(reporter));
    }
    bool hangDetected() const { return hangDetected_; }
    Tick hangTick() const { return hangTick_; }
    const std::string &report() const { return report_; }

    void process() override;
    std::string name() const override { return "watchdog"; }

  private:
    EventQueue &eq_;
    FaultEngine *engine_;
    Tick interval_;
    std::uint64_t lastProgress_ = 0;
    bool hangDetected_ = false;
    Tick hangTick_ = 0;
    std::string report_;
    std::function<std::uint64_t()> outstandingProbe_;
    std::function<bool()> doneProbe_;
    std::vector<std::function<std::string()>> reporters_;
};

/**
 * The injection-site helper: one pointer test when no engine is
 * installed, a seeded draw when one is.
 */
inline Decision
decide(EventQueue &eq, Point point)
{
    FaultEngine *engine = eq.faultEngine();
    if (engine == nullptr)
        return Decision{};
    return engine->decide(point, eq.curTick());
}

} // namespace fault
} // namespace bctrl

#endif // BCTRL_SIM_FAULT_HH
