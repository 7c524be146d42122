// The one place HM_* configuration variables enter the program.
//
// Library configs (runtime::ClusterConfig, core::RuntimeConfig) carry plain constant
// defaults and never read the environment. A binary that wants to be swept from the shell
// calls ApplyConfigEnv once at its entry point, before setting the fields its experiment
// pins — bench::ExperimentWorld and the example programs do.

#ifndef HALFMOON_CORE_CONFIG_ENV_H_
#define HALFMOON_CORE_CONFIG_ENV_H_

#include "src/core/ssf_runtime.h"
#include "src/runtime/cluster.h"

namespace halfmoon::core {

// Overrides exactly the fields whose variable is set (unset or empty leaves the field as
// passed in):
//   HM_SHARDS            -> cluster->log_shards                (integer >= 1)
//   HM_PIPELINE          -> cluster->append_batch_pipeline     (integer >= 1)
//   HM_BATCH_WINDOW      -> cluster->append_batch_window       (microseconds, >= 0)
//   HM_BATCH_MAX         -> cluster->append_batch_max          (integer >= 1)
//   HM_DURABLE           -> cluster->durable                   (0 or 1)
//   HM_CHECKPOINT        -> cluster->checkpoint                (0 or 1)
//   HM_CHECKPOINT_SLICE  -> cluster->checkpoint_slice          (integer >= 1)
//   HM_CHECKPOINT_BYTES  -> cluster->checkpoint_trigger_bytes  (integer >= 0)
//   HM_ADVISOR           -> runtime->advisor                   (0 or 1)
// A malformed or out-of-range value, or a resulting checkpoint-without-durable config,
// aborts with the variable named.
void ApplyConfigEnv(runtime::ClusterConfig* cluster, RuntimeConfig* runtime);

}  // namespace halfmoon::core

#endif  // HALFMOON_CORE_CONFIG_ENV_H_
