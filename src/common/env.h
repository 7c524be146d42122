// Strict HM_* environment-variable parsing.
//
// The library never reads the environment on its own: configs carry plain constant defaults,
// and binaries opt in at their entry point through core::ApplyConfigEnv (cluster + runtime
// knobs) or read a harness knob directly (HM_BENCH_SCALE, HM_FAULTCHECK_FULL). These helpers
// are the one parser all of those share. Header-only and dependency-free.

#ifndef HALFMOON_COMMON_ENV_H_
#define HALFMOON_COMMON_ENV_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace halfmoon {

// A malformed HM_* variable is a hard configuration error, never a silent fallback: atoi
// used to turn HM_PIPELINE=4x into 4 and the min-clamp turned HM_SHARDS=-1 into 1, both of
// which ran a DIFFERENT simulation than the one the user asked for.
[[noreturn]] inline void EnvParseError(const char* name, const char* raw, const char* why) {
  std::fprintf(stderr, "fatal: %s=\"%s\" is invalid: %s\n", name, raw, why);
  std::abort();
}

// Integer-valued knob: unset or empty -> fallback. Anything else must parse COMPLETELY as a
// base-10 integer in [min_value, max_value]; trailing garbage, overflow, and out-of-range
// values abort with the offending variable named.
inline int64_t EnvInt(const char* name, int64_t min_value, int64_t max_value,
                      int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  long long value = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') {
    EnvParseError(name, raw, "not an integer (trailing garbage rejected)");
  }
  if (errno == ERANGE) EnvParseError(name, raw, "out of integer range");
  if (value < min_value) EnvParseError(name, raw, "below the knob's minimum value");
  if (value > max_value) EnvParseError(name, raw, "above the knob's maximum value");
  return value;
}

// Boolean knob: unset or empty -> fallback; otherwise exactly "0" or "1".
inline bool EnvBool(const char* name, bool fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  if (std::strcmp(raw, "0") == 0) return false;
  if (std::strcmp(raw, "1") == 0) return true;
  EnvParseError(name, raw, "not a boolean (expected 0 or 1)");
}

// Positive real-valued knob: unset or empty -> fallback; otherwise the whole string must
// parse as a finite number > 0.
inline double EnvPositiveDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') {
    EnvParseError(name, raw, "not a number (trailing garbage rejected)");
  }
  if (!std::isfinite(value) || value <= 0.0) {
    EnvParseError(name, raw, "must be a finite number > 0");
  }
  return value;
}

}  // namespace halfmoon

#endif  // HALFMOON_COMMON_ENV_H_
