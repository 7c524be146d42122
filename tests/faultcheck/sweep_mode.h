// Shared sweep-size control for the faultcheck test suites.
//
// By default the suites run a bounded "smoke" sweep (strided candidates, capped second-fault
// positions) sized for tier-1 CI. Setting HM_FAULTCHECK_FULL=1 removes every bound and
// enumerates the full depth-2 schedule space (minutes, see EXPERIMENTS.md).

#ifndef HALFMOON_TESTS_FAULTCHECK_SWEEP_MODE_H_
#define HALFMOON_TESTS_FAULTCHECK_SWEEP_MODE_H_

#include <iostream>
#include <string>

#include "src/common/env.h"
#include "src/faultcheck/explorer.h"

namespace halfmoon::faultcheck {

inline bool FullSweep() { return EnvBool("HM_FAULTCHECK_FULL", false); }

// Applies smoke bounds unless the full sweep is requested. The defaults keep each suite in
// tier-1 time budget; pass larger strides for heavyweight workloads.
inline ExplorerOptions Bounded(ExplorerOptions options, int first_stride = 2,
                               int second_stride = 3, int second_limit = 5) {
  if (!FullSweep()) {
    options.first_stride = first_stride;
    options.second_stride = second_stride;
    options.second_limit = second_limit;
  }
  return options;
}

// Prints the per-family explored-schedule counts (surfaced in CI logs / check.sh) and every
// failing schedule in replayable printed form.
inline void PrintReport(const std::string& label, const ExplorerReport& report) {
  std::cout << "[faultcheck] " << label << ": " << report.Summary() << "\n";
  for (const FailingSchedule& failure : report.failures) {
    std::cout << "[faultcheck]   FAIL " << failure.schedule.ToString() << " -> "
              << failure.reason << "\n[faultcheck]        minimized: "
              << failure.minimized.ToString() << "\n";
  }
}

}  // namespace halfmoon::faultcheck

#endif  // HALFMOON_TESTS_FAULTCHECK_SWEEP_MODE_H_
