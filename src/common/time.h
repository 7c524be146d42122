// Simulated-time types shared by every module.
//
// All of Halfmoon's substrates run on a discrete-event simulator (src/sim). Time is virtual:
// a signed nanosecond count since the start of the simulation. We use plain integer types
// rather than std::chrono to keep event-queue keys trivially comparable and cheap to copy.

#ifndef HALFMOON_COMMON_TIME_H_
#define HALFMOON_COMMON_TIME_H_

#include <cstdint>

namespace halfmoon {

// A point in simulated time, in nanoseconds since simulation start.
using SimTime = int64_t;

// A span of simulated time, in nanoseconds.
using SimDuration = int64_t;

constexpr SimDuration Microseconds(int64_t us) { return us * 1000; }
constexpr SimDuration Milliseconds(int64_t ms) { return ms * 1000 * 1000; }
constexpr SimDuration Seconds(int64_t s) { return s * 1000 * 1000 * 1000; }

// Fractional constructors, used by latency models that work in milliseconds.
constexpr SimDuration FromMillisDouble(double ms) {
  return static_cast<SimDuration>(ms * 1e6);
}
constexpr double ToMillisDouble(SimDuration d) { return static_cast<double>(d) / 1e6; }
constexpr double ToSecondsDouble(SimDuration d) { return static_cast<double>(d) / 1e9; }

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_TIME_H_
