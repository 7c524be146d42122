#include "src/core/config_env.h"

#include <climits>
#include <cstdint>
#include <cstdlib>

#include "src/common/env.h"

namespace halfmoon::core {

void ApplyConfigEnv(runtime::ClusterConfig* cluster, RuntimeConfig* runtime) {
  cluster->log_shards = static_cast<int>(EnvInt("HM_SHARDS", 1, INT_MAX, cluster->log_shards));
  cluster->append_batch_pipeline = static_cast<int>(
      EnvInt("HM_PIPELINE", 1, INT_MAX, cluster->append_batch_pipeline));
  // -1 is below the knob's minimum, so it can only come back as "unset".
  int64_t window_us = EnvInt("HM_BATCH_WINDOW", 0, INT_MAX, -1);
  if (window_us >= 0) cluster->append_batch_window = Microseconds(window_us);
  cluster->append_batch_max =
      static_cast<int>(EnvInt("HM_BATCH_MAX", 1, INT_MAX, cluster->append_batch_max));
  cluster->durable = EnvBool("HM_DURABLE", cluster->durable);
  cluster->checkpoint = EnvBool("HM_CHECKPOINT", cluster->checkpoint);
  cluster->checkpoint_slice =
      EnvInt("HM_CHECKPOINT_SLICE", 1, INT64_MAX, cluster->checkpoint_slice);
  cluster->checkpoint_trigger_bytes =
      EnvInt("HM_CHECKPOINT_BYTES", 0, INT64_MAX, cluster->checkpoint_trigger_bytes);
  runtime->advisor = EnvBool("HM_ADVISOR", runtime->advisor);

  if (cluster->checkpoint && !cluster->durable) {
    const char* raw = std::getenv("HM_CHECKPOINT");
    EnvParseError("HM_CHECKPOINT", raw != nullptr ? raw : "",
                  "the checkpoint tier needs the durable tier (set HM_DURABLE=1)");
  }
}

}  // namespace halfmoon::core
