/**
 * @file
 * Compile-time capacity contract of InlineFunction. Built as-is, a
 * capture that exactly fills the inline buffer compiles (this is the
 * control, part of every build). Built with BCTRL_OVERSIZED_CAPTURE,
 * the capture is one byte larger and the build must fail; the
 * inline_function_oversized_capture ctest expects exactly that.
 */

#include <cstddef>

#include "sim/inline_function.hh"

namespace {

constexpr std::size_t capacity = 64;
#ifdef BCTRL_OVERSIZED_CAPTURE
constexpr std::size_t captureBytes = capacity + 1;
#else
constexpr std::size_t captureBytes = capacity;
#endif

struct Payload {
    unsigned char bytes[captureBytes];
};

} // namespace

int
inlineFunctionCapacityProbe()
{
    const Payload payload{};
    bctrl::InlineFunction<int(), capacity> fn(
        [payload]() { return static_cast<int>(payload.bytes[0]); });
    return fn();
}
