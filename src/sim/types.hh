/**
 * @file
 * Fundamental simulation types: ticks, cycles, addresses.
 *
 * The global simulated time base is one tick per picosecond, which lets
 * components in different clock domains (a 3 GHz CPU, a 700 MHz GPU, a
 * DRAM controller) interleave events without rounding error large enough
 * to matter at the granularity this simulator models.
 */

#ifndef BCTRL_SIM_TYPES_HH
#define BCTRL_SIM_TYPES_HH

#include <cstdint>

namespace bctrl {

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles in some component's clock domain. */
using Cycles = std::uint64_t;

/** A physical or virtual memory address. */
using Addr = std::uint64_t;

/** An address-space (process) identifier as seen by TLBs and the ATS. */
using Asid = std::uint16_t;

/** Ticks per second (the tick is one picosecond). */
constexpr Tick ticksPerSecond = 1'000'000'000'000ULL;

/** The maximum representable tick, used as "never". */
constexpr Tick tickNever = ~Tick(0);

/** Convert a frequency in Hz to a clock period in ticks. */
constexpr Tick
periodFromFrequency(std::uint64_t hz)
{
    return ticksPerSecond / hz;
}

} // namespace bctrl

#endif // BCTRL_SIM_TYPES_HH
