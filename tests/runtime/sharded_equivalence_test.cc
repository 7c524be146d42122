// Shard-equivalence suite for the tag-partitioned shared log.
//
// Two contracts, checked over every protocol x workload pair:
//   1. Bit-identity at one shard: with log_shards = 1 the encoded seqnums, event counts,
//      virtual end times, and full log content are *identical* to the pre-sharding
//      implementation (golden tuples captured at the previous head). Sharding must be
//      invisible when disabled.
//   2. Equivalence at N shards: with log_shards in {2, 4} the same seed must produce the
//      same committed record content per tag stream, the same event count and end time
//      (per-shard sequencer rounds draw the same latency samples in the same order), and
//      a passing consistency oracle. Only the seqnum *encoding* may differ.
//
// The content checksum walks every live stream in name order and hashes each record's tag
// count and field map (FNV-1a). Record fields are seqnum-free, so the checksum is invariant
// under re-encoding — which is exactly the property that makes it a cross-shard witness.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ssf_runtime.h"
#include "src/faultcheck/oracle.h"
#include "src/faultcheck/workload.h"
#include "src/runtime/cluster.h"
#include "src/sim/task.h"
#include "tests/testing/live_streams.h"
#include "tests/testing/state_checksum.h"

namespace halfmoon {
namespace {

using core::ProtocolKind;

sim::Task<void> Drive(core::SsfRuntime* runtime, std::string function, Value input, Value* out,
                      bool* done) {
  *out = co_await runtime->InvokeSsf(std::move(function), std::move(input));
  *done = true;
}

uint64_t HashBytes(uint64_t h, std::string_view s) {
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
  return h;
}

uint64_t HashInt(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ull;

uint64_t HashStream(const std::vector<sharedlog::LogRecordPtr>& records) {
  uint64_t h = kFnvOffset;
  for (const auto& rec : records) {
    h = HashInt(h, rec->tags.size());
    for (const auto& [key, field] : rec->fields) {
      h = HashBytes(h, key);
      if (const int64_t* i = std::get_if<int64_t>(&field)) {
        h = HashInt(h, static_cast<uint64_t>(*i));
      } else {
        h = HashBytes(h, std::get<std::string>(field));
      }
    }
  }
  return h;
}

// The KV state the workload's keys ended in: each key's latest slot and, where the key has a
// write log, its version count. Version tuples carry encoded seqnums, so this pins the
// one-shard run only.
uint64_t KvContentHash(runtime::Cluster& cluster, const faultcheck::Workload& workload) {
  std::set<std::string> keys(workload.keys.begin(), workload.keys.end());
  for (const auto& [key, value] : workload.initial_state) keys.insert(key);
  std::vector<sharedlog::TagId> objects;
  for (const std::string& key : keys) {
    sharedlog::TagId object =
        cluster.log_space().tags().Find(std::string(sharedlog::kWriteLogPrefix) + key);
    if (object != sharedlog::kInvalidTagId) objects.push_back(object);
  }
  return testing::KvChecksum(cluster, std::vector<std::string>(keys.begin(), keys.end()),
                             objects);
}

struct RunResult {
  uint64_t events = 0;
  uint64_t end_now = 0;
  uint64_t next_seqnum = 0;
  uint64_t content_fnv = 0;                  // All streams folded, name-sorted.
  uint64_t kv_fnv = 0;                       // KvContentHash.
  std::map<std::string, uint64_t> streams;   // Per-stream checksums, for pinpointing drift.
  bool oracle_ok = false;
  std::string oracle_failure;
};

RunResult RunWorkload(ProtocolKind protocol, const faultcheck::Workload& workload,
                      int log_shards, bool read_cache = false, int pipeline_depth = 1) {
  runtime::ClusterConfig ccfg;  // Defaults: seed 1, 8 nodes — matches the golden capture.
  ccfg.log_shards = log_shards;
  ccfg.log_read_cache = read_cache;
  ccfg.append_batch_pipeline = pipeline_depth;
  runtime::Cluster cluster(ccfg);
  core::RuntimeConfig rcfg;
  rcfg.default_protocol = protocol;
  core::SsfRuntime runtime(&cluster, rcfg);
  workload.Install(runtime);

  std::vector<Value> results;
  for (const auto& [function, input] : workload.invocations) {
    Value out;
    bool done = false;
    cluster.scheduler().Spawn(Drive(&runtime, function, input, &out, &done));
    cluster.scheduler().Run();
    EXPECT_TRUE(done) << workload.name << ": invocation did not complete";
    results.push_back(out);
  }

  faultcheck::OracleVerdict verdict =
      faultcheck::CheckConsistency(cluster, workload, protocol, /*switching=*/false, results);

  RunResult r;
  r.events = static_cast<uint64_t>(cluster.scheduler().events_processed());
  r.end_now = static_cast<uint64_t>(cluster.scheduler().Now());
  r.next_seqnum = static_cast<uint64_t>(cluster.log_space().next_seqnum());
  r.oracle_ok = verdict.ok;
  r.oracle_failure = verdict.failure;
  uint64_t h = kFnvOffset;
  auto& log = cluster.log_space();
  for (const std::string& name : halfmoon::testing::LiveStreamNames(log, "")) {
    h = HashBytes(h, name);
    std::vector<sharedlog::LogRecordPtr> records = log.ReadStream(name);
    uint64_t stream_h = HashStream(records);
    r.streams[name] = stream_h;
    for (const auto& rec : records) {
      h = HashInt(h, rec->tags.size());
      for (const auto& [key, field] : rec->fields) {
        h = HashBytes(h, key);
        if (const int64_t* i = std::get_if<int64_t>(&field)) {
          h = HashInt(h, static_cast<uint64_t>(*i));
        } else {
          h = HashBytes(h, std::get<std::string>(field));
        }
      }
    }
  }
  r.content_fnv = h;
  r.kv_fnv = KvContentHash(cluster, workload);
  return r;
}

const ProtocolKind kProtocols[] = {
    ProtocolKind::kBoki,
    ProtocolKind::kHalfmoonRead,
    ProtocolKind::kHalfmoonWrite,
    ProtocolKind::kTransitional,
};

struct Golden {
  const char* protocol;
  const char* workload;
  uint64_t events;
  uint64_t end_now;
  uint64_t next_seqnum;
  uint64_t content_fnv;
  uint64_t kv_fnv;
};

// Captured at the pre-sharding head (PR 4): ClusterConfig defaults, log_shards pinned to 1.
// Any drift here means the one-shard code path is no longer the historic implementation.
// content_fnv was re-pinned three times, each time equal to the old code's content with the
// new garbage removed before hashing: when step logs began retiring at workflow drain (every
// drained member's step log), when drains began trimming the init stream (every init record
// below the frontier), and when drains began releasing superseded write-log records with
// their versions (the Halfmoon-read and Transitional rows; kv_fnv moved with them: both equal
// the old code's values with one GC scan run before hashing). The events, end_now and
// next_seqnum columns did not move. With no stream surviving the drain, the Boki and
// Halfmoon-write rows hash no records (the FNV offset basis), so kv_fnv (KvContentHash,
// captured before the second re-pin) pins what those runs left in the KV store.
const Golden kGoldens[] = {
    {"Boki", "counter", 102ull, 29114551ull, 13ull, kFnvOffset, 0x89a6e2347a12a376ull},
    {"Boki", "transfer", 114ull, 36286555ull, 15ull, kFnvOffset, 0xe91bc16c46a1bdfdull},
    {"Boki", "workflow", 194ull, 39466378ull, 29ull, kFnvOffset, 0x3bd610a9c33e21a3ull},
    {"Halfmoon-read", "counter", 88ull, 23700364ull, 11ull,
     0xe3e7cf21b28c1209ull, 0xd150cb03cf771b1full},
    {"Halfmoon-read", "transfer", 96ull, 32440175ull, 13ull,
     0xbc9ff8064ff2c718ull, 0x92c15c86b3efccb6ull},
    {"Halfmoon-read", "workflow", 184ull, 41429721ull, 30ull,
     0xf5764785403096f8ull, 0xd3297ac9da6d02e7ull},
    {"Halfmoon-write", "counter", 66ull, 21705196ull, 7ull, kFnvOffset, 0x82c0119b92eed3a4ull},
    {"Halfmoon-write", "transfer", 66ull, 25505280ull, 7ull, kFnvOffset, 0x4098e0edd8c70ff0ull},
    {"Halfmoon-write", "workflow", 120ull, 33777847ull, 17ull, kFnvOffset, 0x2d9b0f14e2a78181ull},
    {"Transitional", "counter", 125ull, 36566345ull, 13ull,
     0x553d98b775c2e692ull, 0x85b64f77b04484b4ull},
    {"Transitional", "transfer", 144ull, 48864106ull, 15ull,
     0x1dc7fbda7efa675cull, 0x5765ab8cbd3b38d9ull},
    {"Transitional", "workflow", 220ull, 53231692ull, 29ull,
     0x71228e5b94c9e7b5ull, 0x1906e52235ce2439ull},
};

const faultcheck::Workload* FindWorkload(const std::vector<faultcheck::Workload>& all,
                                         std::string_view name) {
  for (const faultcheck::Workload& w : all) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

ProtocolKind FindProtocol(std::string_view name) {
  for (ProtocolKind p : kProtocols) {
    if (core::ProtocolName(p) == name) return p;
  }
  ADD_FAILURE() << "unknown protocol in golden table: " << name;
  return ProtocolKind::kBoki;
}

TEST(ShardedEquivalenceTest, OneShardIsBitIdenticalToPreShardingGoldens) {
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (const Golden& golden : kGoldens) {
    const faultcheck::Workload* workload = FindWorkload(all, golden.workload);
    ASSERT_NE(workload, nullptr) << golden.workload;
    RunResult r = RunWorkload(FindProtocol(golden.protocol), *workload, /*log_shards=*/1);
    SCOPED_TRACE(std::string(golden.protocol) + "/" + golden.workload);
    EXPECT_TRUE(r.oracle_ok) << r.oracle_failure;
    EXPECT_EQ(r.events, golden.events);
    EXPECT_EQ(r.end_now, golden.end_now);
    EXPECT_EQ(r.next_seqnum, golden.next_seqnum);
    EXPECT_EQ(r.content_fnv, golden.content_fnv);
    EXPECT_EQ(r.kv_fnv, golden.kv_fnv);
  }
}

TEST(ShardedEquivalenceTest, ShardCountsProduceEquivalentExecutions) {
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    for (const faultcheck::Workload& workload : all) {
      SCOPED_TRACE(std::string(core::ProtocolName(protocol)) + "/" + workload.name);
      RunResult base = RunWorkload(protocol, workload, /*log_shards=*/1);
      ASSERT_TRUE(base.oracle_ok) << base.oracle_failure;
      for (int shards : {2, 4}) {
        RunResult sharded = RunWorkload(protocol, workload, shards);
        SCOPED_TRACE("shards=" + std::to_string(shards));
        EXPECT_TRUE(sharded.oracle_ok) << sharded.oracle_failure;
        // Same serial driving, same latency draws: the execution shape is shard-invariant.
        EXPECT_EQ(sharded.events, base.events);
        EXPECT_EQ(sharded.end_now, base.end_now);
        // Content equivalence, stream by stream — only the seqnum encoding may differ.
        EXPECT_EQ(sharded.streams, base.streams);
        EXPECT_EQ(sharded.content_fnv, base.content_fnv);
        std::printf("[shards] %s/%s n1=0x%llx n%d=0x%llx %s\n", core::ProtocolName(protocol),
                    workload.name.c_str(),
                    static_cast<unsigned long long>(base.content_fnv), shards,
                    static_cast<unsigned long long>(sharded.content_fnv),
                    sharded.content_fnv == base.content_fnv && sharded.oracle_ok ? "match"
                                                                                : "MISMATCH");
      }
    }
  }
}

TEST(ShardedEquivalenceTest, PipelineDepthsCommitIdenticalContent) {
  // The append engine (DESIGN.md §12) commits rounds strictly in departure order, so at ANY
  // depth the per-stream content, the seqnum supply, and the oracle verdict must match
  // depth 1 exactly. Event counts and end times legitimately differ — above depth 1 the
  // dispatcher spawns rounds as separate tasks — which is precisely why depth 1 awaits each
  // round inline instead (pinned by OneShardIsBitIdenticalToPreShardingGoldens above).
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    for (const faultcheck::Workload& workload : all) {
      SCOPED_TRACE(std::string(core::ProtocolName(protocol)) + "/" + workload.name);
      RunResult base = RunWorkload(protocol, workload, /*log_shards=*/1);
      ASSERT_TRUE(base.oracle_ok) << base.oracle_failure;
      for (int depth : {2, 4, 8}) {
        RunResult piped = RunWorkload(protocol, workload, /*log_shards=*/1,
                                      /*read_cache=*/false, depth);
        SCOPED_TRACE("pipeline=" + std::to_string(depth));
        EXPECT_TRUE(piped.oracle_ok) << piped.oracle_failure;
        EXPECT_EQ(piped.next_seqnum, base.next_seqnum);
        EXPECT_EQ(piped.streams, base.streams);
        EXPECT_EQ(piped.content_fnv, base.content_fnv);
        if (depth == 4) {
          std::printf("[pipeline] %s/%s d1=0x%llx d%d=0x%llx %s\n",
                      core::ProtocolName(protocol), workload.name.c_str(),
                      static_cast<unsigned long long>(base.content_fnv), depth,
                      static_cast<unsigned long long>(piped.content_fnv),
                      piped.content_fnv == base.content_fnv && piped.oracle_ok ? "match"
                                                                              : "MISMATCH");
        }
      }
    }
  }
}

TEST(ShardedEquivalenceTest, PipelinedShardsCommitIdenticalContent) {
  // Depth and shard count compose: four shards × four in-flight rounds per shard must still
  // commit the same per-stream content as the serial one-shard log.
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    const faultcheck::Workload* counter = FindWorkload(all, "counter");
    ASSERT_NE(counter, nullptr);
    RunResult base = RunWorkload(protocol, *counter, /*log_shards=*/1);
    RunResult piped = RunWorkload(protocol, *counter, /*log_shards=*/4,
                                  /*read_cache=*/false, /*pipeline_depth=*/4);
    SCOPED_TRACE(core::ProtocolName(protocol));
    EXPECT_TRUE(piped.oracle_ok) << piped.oracle_failure;
    EXPECT_EQ(piped.streams, base.streams);
    EXPECT_EQ(piped.content_fnv, base.content_fnv);
  }
}

TEST(ShardedEquivalenceTest, ReadCachePreservesCommittedContent) {
  // The node-local read cache changes read latencies, never the committed log: with the
  // cache on, per-stream content must match the cache-off run and the oracle must pass.
  // (Event counts and end times legitimately differ — cache hits skip the storage visit.)
  std::vector<faultcheck::Workload> all = faultcheck::AllWorkloads();
  for (ProtocolKind protocol : kProtocols) {
    for (const faultcheck::Workload& workload : all) {
      SCOPED_TRACE(std::string(core::ProtocolName(protocol)) + "/" + workload.name);
      RunResult base = RunWorkload(protocol, workload, /*log_shards=*/1);
      RunResult cached =
          RunWorkload(protocol, workload, /*log_shards=*/1, /*read_cache=*/true);
      EXPECT_TRUE(cached.oracle_ok) << cached.oracle_failure;
      EXPECT_EQ(cached.streams, base.streams);
      EXPECT_EQ(cached.content_fnv, base.content_fnv);

      RunResult cached_sharded =
          RunWorkload(protocol, workload, /*log_shards=*/4, /*read_cache=*/true);
      EXPECT_TRUE(cached_sharded.oracle_ok) << cached_sharded.oracle_failure;
      EXPECT_EQ(cached_sharded.streams, base.streams);
    }
  }
}

}  // namespace
}  // namespace halfmoon
