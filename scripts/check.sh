#!/usr/bin/env bash
# Tier-1 verification: configure (warnings-as-errors), build everything, run the full test
# suite. This is what CI runs; run it locally before pushing.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-check}"

# Guard against committed build trees (PR 3 accidentally tracked ~350 artifacts under
# build-review/): no tracked path may live under a build*/ directory.
if git ls-files | grep -qE '^build'; then
  echo "check.sh: FAIL — build artifacts are tracked in git:" >&2
  git ls-files | grep -E '^build' | head >&2
  exit 1
fi

# Configuration is a value set in code (DESIGN.md §5): nothing under src/ may read the
# environment except the strict HM_* parsers in src/common/env.h.
if grep -rn 'getenv' src/ | grep -v '^src/common/env\.h:'; then
  echo "check.sh: FAIL — getenv under src/ outside src/common/env.h (listed above)" >&2
  exit 1
fi

# One shared-log type (DESIGN.md §9): code outside src/sharedlog/ holds sharedlog::ShardedLog
# and never names a per-shard log class. Whole-word match, so historical test suite names
# such as LogSpaceTest do not trip it.
if grep -rnw --include='*.h' --include='*.cc' --include='CMakeLists.txt' 'LogSpace' \
    src/ bench/ examples/ tests/ e2ebench/ | grep -v '^src/sharedlog/'; then
  echo "check.sh: FAIL — LogSpace named outside src/sharedlog/ (listed above)" >&2
  exit 1
fi

# Gate steps below surface their tagged lines on stderr with `tee >(cat >&2)`: it writes to
# the inherited fd 2, where `tee /dev/stderr` would reopen it and, when stderr is a file
# (`scripts/check.sh > log 2>&1`), truncate everything logged before the step.

cmake -B "${BUILD_DIR}" -S . -DHM_WERROR=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure

# Smoke-mode bench: exercises the full-scale equivalence assertions (group commit vs
# per-request appends, coalesced propagation, zero-copy audit) at reduced scale. Runs from
# inside the build dir so the scaled-down JSON never overwrites the tracked full-scale
# BENCH_hotpath.json at the repo root (DESIGN.md §7.4).
( cd "${BUILD_DIR}" && HM_BENCH_SCALE=0.2 ./bench/bench_hotpath )

# Shard-equivalence smoke: the same seed through a 1-shard and a 4-shard log must commit
# identical per-stream content (FNV checksums printed per protocol/workload pair). Any
# MISMATCH line — or a missing match line — fails the run.
"${BUILD_DIR}"/tests/sharded_equivalence_test \
  --gtest_filter='ShardedEquivalenceTest.ShardCountsProduceEquivalentExecutions' \
  --gtest_brief=1 | grep '^\[shards\]' | tee >(cat >&2) | grep -q ' match' \
  || { echo "check.sh: FAIL — shard-equivalence checksums diverged" >&2; exit 1; }

# Pipeline smoke: the same seed through the group-commit engine at depth 1 and at depth
# 2/4/8 (one engine at every depth; depth 1 runs one round at a time) must commit identical
# per-stream content (FNV checksums printed per protocol/workload pair at depth 4). Any
# MISMATCH line — or a missing match line — fails the run.
"${BUILD_DIR}"/tests/sharded_equivalence_test \
  --gtest_filter='ShardedEquivalenceTest.PipelineDepthsCommitIdenticalContent' \
  --gtest_brief=1 | grep '^\[pipeline\]' | tee >(cat >&2) | grep -q ' match' \
  || { echo "check.sh: FAIL — pipeline-depth checksums diverged" >&2; exit 1; }

# Faultcheck smoke: re-run the schedule-explorer suites standalone so the explored-schedule
# counts are visible in the log (ctest swallows the stdout of passing tests). Set
# HM_FAULTCHECK_FULL=1 for the exhaustive depth-2 sweep (see EXPERIMENTS.md). The advisor,
# node-kill (DESIGN.md §13) and checkpoint (§14) families set their own cluster config;
# 'failures=0' is enforced by each test itself.
"${BUILD_DIR}"/tests/faultcheck_explorer_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_switch_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_advisor_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_node_failure_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_checkpoint_test --gtest_brief=1 | grep '^\[faultcheck\]'
"${BUILD_DIR}"/tests/faultcheck_negative_test --gtest_brief=1 | grep -c '^\[faultcheck\]   FAIL' \
  | sed 's/^/[faultcheck] negative-control failing schedules (expected nonzero): /'

# Checkpoint smoke (DESIGN.md §14): cluster-grain recovery must actually come up through
# load-image + replay-suffix — a silent regression to full replay would still pass the
# equivalence assertions, so the 'mode=image+suffix' line is enforced here.
"${BUILD_DIR}"/tests/checkpoint_recovery_test \
  --gtest_brief=1 | grep '^\[checkpoint\]' | tee >(cat >&2) | grep -q 'mode=image+suffix' \
  || { echo "check.sh: FAIL — checkpointed recovery silently fell back to full replay" >&2; exit 1; }

# One-copy smoke (DESIGN.md §13): after a checkpointed durable run, each journal's block
# buffer must hold only its volatile tail plus the block under the durable frontier, and its
# device only the retained bytes in whole pages. A second copy of the durable prefix (the
# buffer mirroring the device) would still pass every recovery check, so the 'one-copy' line
# is enforced here.
"${BUILD_DIR}"/tests/checkpoint_recovery_test \
  --gtest_filter='CheckpointRecoveryTest.DurableBytesAreHeldOnce' \
  --gtest_brief=1 | grep '^\[storage\]' | tee >(cat >&2) | grep -q ' one-copy' \
  || { echo "check.sh: FAIL — the durable tier holds a second copy of its bytes" >&2; exit 1; }

# Retired-at-drain smoke (DESIGN.md §7.1): after a durable, checkpointed run with peers,
# crashes and storage kills, no drained workflow may keep a live step-log tag, under
# Halfmoon-read and Halfmoon-write. Deferring retirement (to a GC scan, say) would still pass
# every functional check, so both 'retired-at-drain' lines are enforced here.
"${BUILD_DIR}"/tests/gc_test \
  --gtest_filter='GcTest.StepLogsRetireAtDrainUnderStorageKills' \
  --gtest_brief=1 | grep '^\[gc\]' | tee >(cat >&2) | grep -c ' retired-at-drain$' | grep -qx 2 \
  || { echo "check.sh: FAIL — drained workflows kept live step-log tags" >&2; exit 1; }

# Init-released-at-drain smoke (DESIGN.md §7.1): after a volatile Retwis run with no GC scan,
# the init stream must be empty once the load drains, under Halfmoon-read and Halfmoon-write:
# each drain trims the init records the frontier passed. Deferring that trim to a scan would
# still pass every functional check, so both 'init-released-at-drain' lines are enforced here.
"${BUILD_DIR}"/tests/gc_test \
  --gtest_filter='GcTest.InitRecordsReleaseAtDrainWithoutAScan' \
  --gtest_brief=1 | grep '^\[gc\]' | tee >(cat >&2) | grep -c ' init-released-at-drain$' | grep -qx 2 \
  || { echo "check.sh: FAIL — drains left init records for a GC scan" >&2; exit 1; }

# Write-logs-released-at-advance smoke (DESIGN.md §7.1): after a volatile Halfmoon-read Retwis
# run with no GC scan, every object's write log must hold only its latest record and the KV
# store only that record's version: each drain released the records the frontier passed and
# a later record superseded. Deferring that release to a scan would still pass every
# functional check, so the 'write-logs-released-at-advance' line is enforced here.
"${BUILD_DIR}"/tests/gc_test \
  --gtest_filter='GcTest.WriteLogsReleaseAtFrontierAdvance' \
  --gtest_brief=1 | grep '^\[gc\]' | tee >(cat >&2) | grep -c ' write-logs-released-at-advance$' | grep -qx 1 \
  || { echo "check.sh: FAIL — drains left superseded write-log records for a GC scan" >&2; exit 1; }

# Object-sized smoke (DESIGN.md §7.1): the KV version table and its index must cost the same
# for objects whose write-log tag ids are spread up to 2^20 as for ids 0..n-1. A table indexed
# by id value would still pass every functional check, so the 'object-sized' line is enforced
# here.
"${BUILD_DIR}"/tests/kvstore_test \
  --gtest_filter='KvStateTest.VersionIndexIsSizedByObjectsNotIds' \
  --gtest_brief=1 | grep '^\[kv\]' | tee >(cat >&2) | grep -q ' object-sized$' \
  || { echo "check.sh: FAIL — the KV version index is sized by tag ids, not objects" >&2; exit 1; }

# Exact-size KV entries smoke (DESIGN.md §7.8): each LATEST slot and each stored version must
# be one heap block holding its key (or version id) and value, at most 80% of the bytes the
# store held per entry before. A key or id back in its own string would still pass every
# functional check, so the 'exact-size' line is enforced here.
"${BUILD_DIR}"/tests/alloc_test \
  --gtest_filter='AllocGateTest.KvEntriesAreOneExactSizeBlockEach' \
  --gtest_brief=1 | grep '^\[kv\]' | tee >(cat >&2) | grep -q ' | exact-size$' \
  || { echo "check.sh: FAIL — KV entries are not one exact-size block each" >&2; exit 1; }

# Live-sized record store smoke (DESIGN.md §7.1): 10 K objects written once among ~10^6
# trimmed step records must cost the store their live records plus one page-table entry per
# page of history, not a page per surviving record. A store whose sparse pages never compact
# would still pass every functional check, so the 'live-sized' line is enforced here.
"${BUILD_DIR}"/tests/sharedlog_test \
  --gtest_filter='LogSpaceRecordStoreTest.BytesFollowLiveRecordsNotSeqnumHistory' \
  --gtest_brief=1 | grep '^\[mem\]' | tee >(cat >&2) | grep -q ' live-sized$' \
  || { echo "check.sh: FAIL — the record store keeps pages sized by seqnum history" >&2; exit 1; }

# Allocation smoke (DESIGN.md §7.7): a seeded volatile travel load must cost at most 65% of
# the heap allocations per invocation it cost before coroutine frames were pooled and records
# built at their exact size. Frames or record fields back on the heap would still pass every
# functional check, so the 'pooled' line is enforced here.
"${BUILD_DIR}"/tests/alloc_test --gtest_brief=1 | grep '^\[alloc\]' | tee >(cat >&2) \
  | grep -q ' | pooled$' \
  || { echo "check.sh: FAIL — SSF invocations allocate over the pooled budget" >&2; exit 1; }

# Fig. 14 smoke (§4.7): bench_fig14_switching's shape with 1 s phases — both scope switches
# must complete within 1 s of simulated time, with SSFs started inside each BEGIN..END window
# (they log transitional records there). A switch that stalls or serves no window would still
# pass the functional switching tests, so the 'switched-pauselessly' line is enforced here.
# Which direction is slower is not gated.
"${BUILD_DIR}"/tests/switching_test \
  --gtest_filter='SwitchingTest.Fig14ShapeSwitchesCompleteAndServeTheirTransitionalWindows' \
  --gtest_brief=1 | grep '^\[fig14\]' | tee >(cat >&2) | grep -q ' switched-pauselessly$' \
  || { echo "check.sh: FAIL — a Fig. 14 switch stalled or served no transitional window" >&2; exit 1; }

# Advisor smoke (DESIGN.md §11): the drift byte gate (advisor strictly below both static
# protocols), the hysteresis/dwell counters, and the advisor-off golden content checksum,
# surfaced via their '[advisor]' summary lines. A missing 'win' line — the byte gate —
# fails the run.
"${BUILD_DIR}"/tests/online_advisor_test --gtest_brief=1 | grep '^\[advisor\]' \
  | tee >(cat >&2) | grep -q ' win' \
  || { echo "check.sh: FAIL — advisor drift byte gate did not report a win" >&2; exit 1; }

echo "check.sh: all tests passed"
