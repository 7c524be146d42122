// Strict HM_* environment-variable parsing.
//
// The library never reads the environment: cluster and runtime configs carry plain constant
// defaults that experiments set in code. The only variables are two harness knobs, read
// directly by the binaries that honour them (HM_BENCH_SCALE, HM_FAULTCHECK_FULL), and these
// helpers are their one parser — the only getenv calls under src/. Header-only and
// dependency-free.

#ifndef HALFMOON_COMMON_ENV_H_
#define HALFMOON_COMMON_ENV_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace halfmoon {

// A malformed HM_* variable is a hard configuration error, never a silent fallback: a
// lenient parse (atoi turning "0.2x" into 0, say) runs a DIFFERENT experiment than the one
// the user asked for.
[[noreturn]] inline void EnvParseError(const char* name, const char* raw, const char* why) {
  std::fprintf(stderr, "fatal: %s=\"%s\" is invalid: %s\n", name, raw, why);
  std::abort();
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
