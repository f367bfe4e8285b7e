/**
 * @file
 * Host-side wall-time profiler: attributes the simulator's own CPU
 * time to simulated components, answering "where do events/sec go".
 *
 * Components open a Scope at their access()/service entry; the scope
 * accumulates wall time into that component's slot on exit. Scopes
 * nest (a cache access that synchronously reaches the bus is counted
 * in both), so slot times are *inclusive* and do not sum to the event
 * loop total. The eventLoop slot wraps every Event::process() call in
 * EventQueue::serviceOne and is the denominator for events/sec.
 *
 * This is host instrumentation only: it reads the wall clock but never
 * feeds simulated state, so enabling it is bit-identical on every
 * RunResult (the same contract as tracing, enforced by the
 * TraceOverhead tests). Disabled cost is one null-pointer branch per
 * scope. Results are inherently nondeterministic and are surfaced only
 * through the sweep report's profile block, never through stats dumps.
 */

// bclint:allow-file(nondeterminism) -- host-side wall-clock profiling
// only; simulated results never read it (same waiver as sim/sweep.cc).

#ifndef BCTRL_SIM_HOST_PROFILER_HH
#define BCTRL_SIM_HOST_PROFILER_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace bctrl {

class HostProfiler
{
  public:
    /** Attribution slots, one per major hot-path component class. */
    enum class Slot : unsigned {
        eventLoop,     ///< every Event::process() (the 100% reference)
        gpu,           ///< GPU memory-op issue path
        cache,         ///< all Cache::access calls (L1s, L2s, CPU)
        coherence,     ///< coherence-point request handling
        borderControl, ///< Border Control check path
        ats,           ///< translation service / page walks
        dram,          ///< DRAM channel model
        numSlots,
    };

    static constexpr std::size_t numSlots =
        static_cast<std::size_t>(Slot::numSlots);

    static const char *
    slotName(Slot slot)
    {
        static const char *const kNames[numSlots] = {
            "eventLoop", "gpu",  "cache", "coherence",
            "borderControl", "ats", "dram",
        };
        return kNames[static_cast<std::size_t>(slot)];
    }

    /** Accumulated wall seconds attributed to @p slot (inclusive). */
    double
    seconds(Slot slot) const
    {
        return static_cast<double>(
                   nanos_[static_cast<std::size_t>(slot)]) *
               1e-9;
    }

    /** Number of scopes opened against @p slot. */
    std::uint64_t
    calls(Slot slot) const
    {
        return calls_[static_cast<std::size_t>(slot)];
    }

    void
    reset()
    {
        nanos_.fill(0);
        calls_.fill(0);
    }

    /**
     * RAII attribution scope. Constructed from a possibly-null
     * profiler so call sites pay one branch when profiling is off.
     */
    class Scope
    {
      public:
        Scope(HostProfiler *profiler, Slot slot)
            : profiler_(profiler), slot_(slot)
        {
            if (profiler_ != nullptr)
                start_ = std::chrono::steady_clock::now();
        }

        ~Scope()
        {
            if (profiler_ == nullptr)
                return;
            const auto elapsed =
                std::chrono::steady_clock::now() - start_;
            const std::size_t i = static_cast<std::size_t>(slot_);
            profiler_->nanos_[i] += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed)
                    .count());
            ++profiler_->calls_[i];
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        HostProfiler *profiler_;
        Slot slot_;
        std::chrono::steady_clock::time_point start_;
    };

  private:
    std::array<std::uint64_t, numSlots> nanos_{};
    std::array<std::uint64_t, numSlots> calls_{};
};

} // namespace bctrl

#endif // BCTRL_SIM_HOST_PROFILER_HH
