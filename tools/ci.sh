#!/bin/sh
# Tier-1 CI: build and run the full test suite three times — plain, with
# AddressSanitizer + UndefinedBehaviorSanitizer, and (concurrency tests
# only) with ThreadSanitizer — so data races in the fragment scan and
# lifetime bugs in the checkpoint code surface before merge.
# The runtime lock-order validator (util/sync.cc) is compiled into every
# build, so each leg also aborts on the first lock-rank inversion its
# tests reach. Then: a clang -Wthread-safety build (when available), the
# lockcheck lock-discipline lint, clang-tidy over src/ (when available),
# the rulecheck theory lint gate, the observability + CPU-count + service
# end-to-end contracts, and the latency-regression bench gates.
#
# Usage: tools/ci.sh [jobs]      (from the repository root)
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 2)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

# run_suite <build-dir> <ctest -R filter or ''> [cmake args...]
run_suite() {
  build_dir="$1"
  test_filter="$2"
  shift 2
  echo "=== configure ${build_dir} ($*) ==="
  cmake -B "${build_dir}" -S "${root}" "$@"
  echo "=== build ${build_dir} ==="
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== ctest ${build_dir} ${test_filter:+(-R ${test_filter})} ==="
  if [ -n "${test_filter}" ]; then
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
      -R "${test_filter}"
  else
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
  fi
}

run_suite "${root}/build" "" -DMERGEPURGE_SANITIZE="" \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
# Build, without running, the benchmark's programs against that library
# as perfbench/run.py does, so an API change that breaks them fails here.
echo "=== build perfbench programs (not run) ==="
cmake -S "${root}/perfbench" -B "${root}/build-perfbench" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMERGEPURGE_ROOT="${root}" \
  -DMERGEPURGE_LIBRARY="${root}/build/src/libmergepurge.a"
cmake --build "${root}/build-perfbench" -j "${jobs}" \
  --target perfbench_e2e perfbench_trace
run_suite "${root}/build-san" "" "-DMERGEPURGE_SANITIZE=address;undefined"
# TSan is incompatible with ASan, so it gets its own tree; run the suites
# that exercise threads (the cross-path contract, the fragment scan, the
# batch multi-pass engine, the parallel CSV reader and order builder,
# ParallelFor itself, incremental engine, the TCP
# service, fault-tolerance, the sync primitives) rather than all of
# ctest. The lock-order validator runs here as in every build, now under
# TSan's thread schedules.
run_suite "${root}/build-tsan" \
  "contract_test|parallel_test|multipass_test|csv_test|util_test|clustering_test|engine_matrix_test|incremental_test|incremental_property_test|service_test|shard_test|fault_tolerance_test|metrics_test|obs_window_test|sync_test|durability_test" \
  "-DMERGEPURGE_SANITIZE=thread"

# Compile-time lock discipline (clang only): build the whole tree with
# the thread-safety analysis promoted to errors. The configure step also
# runs the negative-compile fixture (tests/negative_compile/), so this
# proves both "our annotations are consistent" and "the analysis still
# rejects an unannotated guarded access". g++-only hosts skip, loudly —
# the lockcheck linter below still runs everywhere.
if command -v clang++ >/dev/null 2>&1; then
  run_suite "${root}/build-clang-tsa" "sync_test" \
    -DCMAKE_CXX_COMPILER=clang++ -DMERGEPURGE_THREAD_SAFETY=ON
else
  echo "=== clang++ not installed; skipping -Wthread-safety build ==="
fi

# Lock-discipline lint: no naked std::mutex / lock_guard / detached
# threads outside src/util/sync.h (docs/concurrency.md documents the
# allowlist syntax). Pure-python, so it runs even without clang.
if command -v python3 >/dev/null 2>&1; then
  echo "=== lockcheck ==="
  python3 "${root}/tools/lockcheck.py" --root="${root}"
else
  echo "=== python3 not installed; skipping lockcheck ==="
fi

# Static analysis over our sources (.clang-tidy pins the check set).
# clang-tidy is optional tooling — skip, loudly, when not installed.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy src/ ==="
  find "${root}/src" -name '*.cc' -print0 |
    xargs -0 -P "${jobs}" -n 8 clang-tidy -p "${root}/build" --quiet
else
  echo "=== clang-tidy not installed; skipping tidy step ==="
fi

# Rule-theory lint gate: the shipped employee theory must be clean at
# -Werror severity, its JSON report must validate, and a known-bad theory
# (blank-merge: fires on two all-empty records) must be rejected with the
# findings exit code (1), both by rulecheck and by the CLI preflight.
lint_dir="$(mktemp -d)"
trap 'rm -rf "${lint_dir}"' EXIT
echo "=== rulecheck e2e (${lint_dir}) ==="
"${root}/build/tools/mergepurge_rulecheck" --builtin-employee --werror
"${root}/build/tools/mergepurge_rulecheck" --builtin-employee \
  --format=json --out="${lint_dir}/lint.json"
"${root}/build/tools/validate_report" --file="${lint_dir}/lint.json" \
  tool source outcome/ok program/rules program/merge_directives \
  counts/error counts/warning counts/suppressed diagnostics
printf 'rule blank:\n  if similarity(r1.last_name, r2.last_name) >= 0.9\n  then match\n' \
  > "${lint_dir}/bad.rules"
bad_status=0
"${root}/build/tools/mergepurge_rulecheck" --rules="${lint_dir}/bad.rules" \
  >/dev/null 2>&1 || bad_status=$?
if [ "${bad_status}" -ne 1 ]; then
  echo "ci: rulecheck accepted a blank-merge theory (exit ${bad_status})" >&2
  exit 1
fi
preflight_status=0
"${root}/build/tools/mergepurge" --gen=10 --output="${lint_dir}/out.csv" \
  --rules="${lint_dir}/bad.rules" --rules-check >/dev/null 2>&1 ||
  preflight_status=$?
if [ "${preflight_status}" -ne 1 ]; then
  echo "ci: --rules-check let a blank-merge theory run (exit ${preflight_status})" >&2
  exit 1
fi

# End-to-end observability contract: a generated CLI run must produce a
# run report and a Chrome trace whose required keys all resolve
# (docs/observability.md documents both schemas), and the trace must hold
# a span for every batch phase; csv-read needs a run over an input file.
obs_dir="$(mktemp -d)"
trap 'rm -rf "${lint_dir}" "${obs_dir}"' EXIT
echo "=== obs e2e (${obs_dir}) ==="
"${root}/build/tools/mergepurge" --gen=2000 --output="${obs_dir}/out.csv" \
  --rules-check --pairs-out="${obs_dir}/obs_pairs" \
  --metrics-out="${obs_dir}/metrics.json" \
  --trace-out="${obs_dir}/trace.json" --progress --log-level=info
"${root}/build/tools/validate_report" --file="${obs_dir}/metrics.json" \
  passes closure outcome \
  counters/snm.windows counters/snm.comparisons counters/snm.matches \
  counters/closure.unions \
  counters/faults.tripped histograms/snm.scan_us histograms/closure.us
"${root}/build/tools/validate_report" --file="${obs_dir}/trace.json" \
  traceEvents displayTimeUnit
"${root}/build/tools/mergepurge" --input="${obs_dir}/out.csv" \
  --output="${obs_dir}/reread.csv" --trace-out="${obs_dir}/trace_input.json"
python3 - "${obs_dir}/trace.json" "${obs_dir}/trace_input.json" <<'EOF'
import json, sys
def names(path):
    return {event["name"] for event in json.load(open(path))["traceEvents"]}
generated, read = names(sys.argv[1]), names(sys.argv[2])
missing = [name for name in ("generate", "condition", "pair-set-build",
                             "distinct-pairs", "pairs-write", "purge",
                             "csv-write", "release") if name not in generated]
missing += [name for name in ("csv-read",) if name not in read]
assert not missing, f"batch phases without a span: {missing}"
print("ci: batch phase spans ok")
EOF

# The batch run's output does not depend on how many CPUs it may use:
# for both methods, a run pinned to one CPU and a run on every CPU write
# byte-identical purged output, entity mappings and per-pass pair files.
# --gen=20000 (about 50k records) is above the pool's grain, so every
# phase runs on worker threads; the --input runs read a written CSV
# through the parallel reader.
echo "=== cpu-count e2e (${obs_dir}) ==="
one_and_all_cpus() {  # name, then the run's flags
  local name="$1"
  shift
  taskset -c 0 "${root}/build/tools/mergepurge" "$@" \
    --output="${obs_dir}/${name}_one.csv" \
    --entities="${obs_dir}/${name}_one_entities.csv" \
    --pairs-out="${obs_dir}/${name}_one"
  "${root}/build/tools/mergepurge" "$@" \
    --output="${obs_dir}/${name}_all.csv" \
    --entities="${obs_dir}/${name}_all_entities.csv" \
    --pairs-out="${obs_dir}/${name}_all"
  for suffix in .csv _entities.csv .last-name.mpp .first-name.mpp \
      .address.mpp; do
    cmp "${obs_dir}/${name}_one${suffix}" "${obs_dir}/${name}_all${suffix}"
  done
}
for method in snm cluster; do
  one_and_all_cpus "${method}" --gen=20000 --method="${method}"
done
for method in snm cluster; do
  one_and_all_cpus "${method}_input" --input="${obs_dir}/snm_all.csv" \
    --method="${method}"
done
# The city spelling corrector calls the bounded distance with a bound
# that shrinks as better candidates appear.
one_and_all_cpus spell --gen=20000 --spell-city
echo "ci: cpu-count ok: one CPU and every CPU give identical output"

# Service e2e: serve on an ephemeral loopback port — WAL durability ON
# (--data-dir, --fsync=group) so the latency gate below prices the WAL
# into every upsert — drive a >=10k-record match+upsert mix with the
# loadgen, validate both run reports, then SIGTERM the server and
# require a clean (exit 0) graceful drain (docs/service.md,
# docs/durability.md).
svc_dir="$(mktemp -d)"
echo "=== service e2e (${svc_dir}) ==="
"${root}/build/tools/mergepurge_serve" --port=0 \
  --port-file="${svc_dir}/port.txt" \
  --data-dir="${svc_dir}/data" --fsync=group \
  --metrics-out="${svc_dir}/serve_metrics.json" \
  --rules-check \
  --batch-delay-ms=1 --log-level=info 2>"${svc_dir}/serve.log" &
serve_pid=$!
trap 'kill "${serve_pid}" 2>/dev/null || true; rm -rf "${lint_dir}" "${obs_dir}" "${svc_dir}"' EXIT
for _ in $(seq 1 50); do
  [ -s "${svc_dir}/port.txt" ] && break
  sleep 0.1
done
[ -s "${svc_dir}/port.txt" ] || {
  echo "ci: server did not write its port file" >&2
  cat "${svc_dir}/serve.log" >&2
  exit 1
}
"${root}/build/tools/mergepurge_loadgen" \
  --port="$(cat "${svc_dir}/port.txt")" --records=10000 --threads=4 \
  --match-frac=0.4 --out="${svc_dir}/BENCH_service.json"
"${root}/build/tools/validate_report" \
  --file="${svc_dir}/BENCH_service.json" outcome \
  config/summary/requests_per_second \
  config/summary/latency_request/p50_us \
  config/summary/latency_request/p99_us \
  histograms/service.client.request_us \
  histograms/service.client.match_us histograms/service.client.upsert_us
# Live introspection e2e (docs/observability.md "Live introspection"):
# drive a second burst with the loadgen's windowed progress reporter on,
# poll {"op":"stats"} through mergepurge_top --json mid-burst, and
# schema-validate the round-tripped doc: lifecycle state, resident
# gauges, histogram summaries, the server-side rate window, and the six
# commit-pipeline stage histograms.
"${root}/build/tools/mergepurge_loadgen" \
  --port="$(cat "${svc_dir}/port.txt")" --records=6000 --threads=4 \
  --match-frac=0.2 --progress-interval-ms=200 \
  --out="${svc_dir}/loadgen_live.json" 2>"${svc_dir}/loadgen_live.log" &
live_loadgen_pid=$!
sleep 0.7
"${root}/build/tools/mergepurge_top" --port="$(cat "${svc_dir}/port.txt")" \
  --json --count=2 --interval-ms=400 > "${svc_dir}/stats_live.jsonl"
live_status=0
wait "${live_loadgen_pid}" || live_status=$?
if [ "${live_status}" -ne 0 ]; then
  echo "ci: introspection-e2e loadgen failed (exit ${live_status})" >&2
  cat "${svc_dir}/loadgen_live.log" >&2
  exit 1
fi
grep -q 'req/s' "${svc_dir}/loadgen_live.log" || {
  echo "ci: loadgen --progress-interval-ms printed no progress lines" >&2
  cat "${svc_dir}/loadgen_live.log" >&2
  exit 1
}
tail -n 1 "${svc_dir}/stats_live.jsonl" > "${svc_dir}/stats_live.json"
"${root}/build/tools/validate_report" --file="${svc_dir}/stats_live.json" \
  ok:bool state:string uptime_seconds:number \
  records:number entities:number pairs:number durability/wal_seq:number \
  counters:object gauges:object histograms:object \
  window:object window/valid:bool \
  counters/service.requests:number counters/service.batches:number \
  gauges/service.records_resident:number \
  gauges/service.pairs_resident:number \
  gauges/service.components_resident:number \
  gauges/service.wal.open_segment_bytes:number \
  gauges/service.snapshot.age_ms:number \
  histograms/service.upsert_us:object \
  histograms/service.stage.queue_wait_us/p50:number \
  histograms/service.stage.wal_append_us/p50:number \
  histograms/service.stage.wal_fsync_us/p50:number \
  histograms/service.stage.apply_us/p50:number \
  histograms/service.stage.label_rebuild_us/p50:number \
  histograms/service.stage.ack_us/p50:number
# Once the burst has drained, the stage histograms must attribute the
# commit pipeline exactly: one sample per committed batch in every
# stage, and the per-stage p50s summing to the end-to-end upsert p50
# (within 15% — quantiles interpolate within log-spaced buckets).
"${root}/build/tools/mergepurge_top" --port="$(cat "${svc_dir}/port.txt")" \
  --json --count=1 > "${svc_dir}/stats_final.json"
python3 - "${svc_dir}/stats_live.json" "${svc_dir}/stats_final.json" <<'EOF'
import json, sys
live = json.load(open(sys.argv[1]))
final = json.load(open(sys.argv[2]))
window = live["window"]
assert window["valid"], "server-side window invalid after two polls"
assert window["requests_per_sec"] > 0, "window rated zero requests"
hist = final["histograms"]
batches = final["counters"]["service.batches"]
stages = ["service.stage.queue_wait_us", "service.stage.wal_append_us",
          "service.stage.wal_fsync_us", "service.stage.apply_us",
          "service.stage.label_rebuild_us", "service.stage.ack_us"]
for name in stages:
    count = hist[name]["count"]
    assert count == batches, (
        f"{name} count {count} != service.batches {batches}")
stage_sum = sum(hist[name]["p50"] for name in stages)
upsert_p50 = final["histograms"]["service.upsert_us"]["p50"]
assert abs(stage_sum - upsert_p50) <= 0.15 * upsert_p50, (
    f"stage p50 sum {stage_sum:.0f}us outside 15% of "
    f"upsert p50 {upsert_p50:.0f}us")
print(f"ci: stage attribution ok: {len(stages)} stages x {batches} "
      f"batches, sum(stage p50) {stage_sum:.0f}us vs upsert p50 "
      f"{upsert_p50:.0f}us")
# apply's split into the engine's AddBatch stages: one sample per batch
# each, and together (summed time) within 5% of apply.
splits = ["service.stage.insert_us", "service.stage.scan_us",
          "service.stage.union_us"]
for name in splits:
    assert hist[name]["count"] == batches, (
        f"{name} count {hist[name]['count']} != service.batches {batches}")
split_sum = sum(hist[name]["sum"] for name in splits)
apply_sum = hist["service.stage.apply_us"]["sum"]
assert abs(split_sum - apply_sum) <= 0.05 * apply_sum, (
    f"insert+scan+union {split_sum:.0f}us outside 5% of apply "
    f"{apply_sum:.0f}us")
print(f"ci: apply split ok: insert+scan+union {split_sum:.0f}us vs apply "
      f"{apply_sum:.0f}us")
EOF
kill -TERM "${serve_pid}"
serve_status=0
wait "${serve_pid}" || serve_status=$?
if [ "${serve_status}" -ne 0 ]; then
  echo "ci: mergepurge_serve did not drain cleanly (exit ${serve_status})" >&2
  cat "${svc_dir}/serve.log" >&2
  exit 1
fi
"${root}/build/tools/validate_report" \
  --file="${svc_dir}/serve_metrics.json" outcome \
  config/service/records config/service/entities config/service/batches \
  config/durability/data_dir config/durability/fsync \
  config/durability/applied_seq config/durability/snapshot_seq \
  config/durability/recovery/recovery_ms \
  counters/service.requests counters/service.upsert_records \
  counters/service.batches counters/service.wal.appends \
  counters/service.wal.fsyncs counters/service.wal.bytes \
  histograms/service.request_us \
  histograms/service.match_us histograms/service.upsert_us \
  histograms/service.queue_wait_us histograms/service.batch_records \
  histograms/service.wal.append_us \
  histograms/service.stage.queue_wait_us \
  histograms/service.stage.wal_fsync_us histograms/service.stage.apply_us \
  gauges/service.records_resident gauges/service.pairs_resident \
  gauges/service.components_resident
cp "${svc_dir}/BENCH_service.json" "${root}/BENCH_service.json"

# Crash-recovery e2e: kill -9 the server mid-stream, restart it on the
# SAME port over the same --data-dir, and require (a) the loadgen —
# whose retry loop papers over the outage — to finish with exit 0 and a
# nonzero retry count, (b) the recovered server to drain cleanly, and
# (c) mergepurge_walcheck to prove the recovered state byte-identical
# to a serial replay of the full WAL (docs/durability.md).
crash_dir="$(mktemp -d)"
echo "=== crash-recovery e2e (${crash_dir}) ==="
"${root}/build/tools/mergepurge_serve" --port=0 \
  --port-file="${crash_dir}/port.txt" \
  --data-dir="${crash_dir}/data" --fsync=group --keep-wal \
  --snapshot-batches=64 \
  --batch-delay-ms=1 --log-level=warn 2>"${crash_dir}/serve1.log" &
crash_pid=$!
trap 'kill "${serve_pid}" 2>/dev/null || true; kill -9 "${crash_pid}" 2>/dev/null || true; rm -rf "${lint_dir}" "${obs_dir}" "${svc_dir}" "${crash_dir}"' EXIT
for _ in $(seq 1 50); do
  [ -s "${crash_dir}/port.txt" ] && break
  sleep 0.1
done
[ -s "${crash_dir}/port.txt" ] || {
  echo "ci: crash-e2e server did not write its port file" >&2
  cat "${crash_dir}/serve1.log" >&2
  exit 1
}
crash_port="$(cat "${crash_dir}/port.txt")"
"${root}/build/tools/mergepurge_loadgen" \
  --port="${crash_port}" --records=8000 --threads=4 \
  --match-frac=0.2 --progress-interval-ms=200 \
  --out="${crash_dir}/loadgen.json" \
  2>"${crash_dir}/loadgen.log" &
loadgen_pid=$!
sleep 0.5
kill -9 "${crash_pid}" 2>/dev/null || true
wait "${crash_pid}" 2>/dev/null || true
"${root}/build/tools/mergepurge_serve" --port="${crash_port}" \
  --data-dir="${crash_dir}/data" --fsync=group --keep-wal \
  --snapshot-batches=64 \
  --metrics-out="${crash_dir}/serve2_metrics.json" \
  --batch-delay-ms=1 --log-level=warn 2>"${crash_dir}/serve2.log" &
crash_pid=$!
loadgen_status=0
wait "${loadgen_pid}" || loadgen_status=$?
if [ "${loadgen_status}" -ne 0 ]; then
  echo "ci: loadgen did not survive the server crash (exit ${loadgen_status})" >&2
  cat "${crash_dir}/loadgen.log" "${crash_dir}/serve2.log" >&2
  exit 1
fi
"${root}/build/tools/validate_report" \
  --file="${crash_dir}/loadgen.json" outcome \
  config/summary/retries counters/service.client.retries
retries="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["config"]["summary"]["retries"])' \
  "${crash_dir}/loadgen.json")"
if [ "${retries}" -eq 0 ]; then
  echo "ci: crash-e2e loadgen reported zero retries; the kill -9 missed" >&2
  exit 1
fi
kill -TERM "${crash_pid}"
crash_status=0
wait "${crash_pid}" || crash_status=$?
if [ "${crash_status}" -ne 0 ]; then
  echo "ci: recovered server did not drain cleanly (exit ${crash_status})" >&2
  cat "${crash_dir}/serve2.log" >&2
  exit 1
fi
"${root}/build/tools/validate_report" \
  --file="${crash_dir}/serve2_metrics.json" outcome \
  config/durability/applied_seq \
  config/durability/recovery/snapshot_loaded \
  config/durability/recovery/batches_replayed \
  config/durability/recovery/recovery_ms \
  counters/service.recovery.batches_replayed \
  histograms/service.recovery.us
"${root}/build/tools/mergepurge_walcheck" --data-dir="${crash_dir}/data"

# Sharded-coordinator e2e (docs/sharding.md): four shard engines behind
# mergepurge_coord. Phase 1 benches the sharded data path with the same
# loadgen mix as the service e2e — it must beat the single-engine
# records/s measured above (the whole point of sharding) — and
# validates the merged stats: global record/entity/pair figures at top
# level, one attributed section per shard, and the coord.* metric set.
# Phase 2, on a fresh topology, kills one shard with kill -9 mid-load,
# restarts it on the same port over the same WAL, and requires the
# loadgen to finish clean (exit 0) with the coordinator absorbing the
# outage (coord.shard_retries > 0). Afterwards the shard-count
# invariance must still hold against a single engine fed the same
# sequential stream: the sharded run may never END UP WITH MORE
# entities (a lost cross-boundary match would split an entity — the
# boundary band exists to make that impossible), and may merge at most
# a sliver more (conservative band replicas and at-least-once resends
# can only add genuine matches; tests/contract_test.cc pins exact label
# equality for the deterministic in-process one-key case).
coord_dir="$(mktemp -d)"
trap 'kill "${serve_pid}" 2>/dev/null || true; kill -9 "${crash_pid}" 2>/dev/null || true; for f in "${coord_dir}"/pid_*; do kill -9 "$(cat "${f}")" 2>/dev/null || true; done; rm -rf "${lint_dir}" "${obs_dir}" "${svc_dir}" "${crash_dir}" "${coord_dir}"' EXIT
echo "=== coordinator e2e (${coord_dir}) ==="
# wait_port <port-file> <log-file>
wait_port() {
  for _ in $(seq 1 50); do
    [ -s "$1" ] && return 0
    sleep 0.1
  done
  echo "ci: server did not write its port file ($1)" >&2
  cat "$2" >&2
  exit 1
}
for i in 0 1 2 3; do
  "${root}/build/tools/mergepurge_serve" --port=0 \
    --port-file="${coord_dir}/b_port${i}.txt" --keys=last-name \
    --instance-label="shard-${i}" \
    --data-dir="${coord_dir}/b_data${i}" --fsync=group \
    --batch-delay-ms=1 --log-level=warn 2>"${coord_dir}/b_serve${i}.log" &
  echo $! > "${coord_dir}/pid_b${i}"
done
for i in 0 1 2 3; do
  wait_port "${coord_dir}/b_port${i}.txt" "${coord_dir}/b_serve${i}.log"
done
coord_shards="127.0.0.1:$(cat "${coord_dir}/b_port0.txt"),127.0.0.1:$(cat "${coord_dir}/b_port1.txt"),127.0.0.1:$(cat "${coord_dir}/b_port2.txt"),127.0.0.1:$(cat "${coord_dir}/b_port3.txt")"
"${root}/build/tools/mergepurge_coord" --shards="${coord_shards}" \
  --port=0 --port-file="${coord_dir}/b_coord_port.txt" --keys=last-name \
  --log-level=warn 2>"${coord_dir}/b_coord.log" &
echo $! > "${coord_dir}/pid_bc"
wait_port "${coord_dir}/b_coord_port.txt" "${coord_dir}/b_coord.log"
"${root}/build/tools/mergepurge_loadgen" \
  --port="$(cat "${coord_dir}/b_coord_port.txt")" --records=10000 \
  --threads=4 --match-frac=0.4 --out="${coord_dir}/BENCH_coord.json"
"${root}/build/tools/validate_report" \
  --file="${coord_dir}/BENCH_coord.json" outcome \
  config/summary/requests_per_second config/summary/records_per_second \
  config/summary/latency_request/p50_us \
  config/summary/latency_request/p99_us \
  histograms/service.client.request_us
python3 - "${coord_dir}/BENCH_coord.json" "${svc_dir}/BENCH_service.json" <<'EOF'
import json, sys
coord = json.load(open(sys.argv[1]))["config"]["summary"]
single = json.load(open(sys.argv[2]))["config"]["summary"]
c, s = coord["records_per_second"], single["records_per_second"]
assert c > s, f"4-shard coordinator ({c:.0f} rec/s) did not beat the single engine ({s:.0f} rec/s)"
print(f"ci: coordinator throughput ok: {c:.0f} rec/s vs single-engine {s:.0f} rec/s")
EOF
"${root}/build/tools/mergepurge_top" \
  --port="$(cat "${coord_dir}/b_coord_port.txt")" --json --count=1 \
  > "${coord_dir}/b_stats.json"
"${root}/build/tools/validate_report" --file="${coord_dir}/b_stats.json" \
  ok:bool records:number entities:number pairs:number shards \
  counters/coord.route_records:number \
  counters/coord.replica_records:number
python3 - "${coord_dir}/b_stats.json" <<'EOF'
import json, sys
stats = json.load(open(sys.argv[1]))
assert stats["records"] == 10000, f"merged stats lost records: {stats['records']}"
shards = stats["shards"]
assert len(shards) == 4, f"expected 4 shard sections, got {len(shards)}"
labels = sorted(s.get("instance") for s in shards)
assert labels == [f"shard-{i}" for i in range(4)], f"instance labels wrong: {labels}"
resident = sum(s["records"] for s in shards)
assert resident >= 10000, f"shards hold {resident} < 10000 records"
print(f"ci: merged stats ok: 10000 global records, {resident} resident across 4 shards ({resident - 10000} boundary replicas)")
EOF
kill -TERM "$(cat "${coord_dir}/pid_bc")"
bench_coord_status=0
wait "$(cat "${coord_dir}/pid_bc")" || bench_coord_status=$?
if [ "${bench_coord_status}" -ne 0 ]; then
  echo "ci: mergepurge_coord did not drain cleanly (exit ${bench_coord_status})" >&2
  cat "${coord_dir}/b_coord.log" >&2
  exit 1
fi
for i in 0 1 2 3; do
  kill -TERM "$(cat "${coord_dir}/pid_b${i}")" 2>/dev/null || true
  wait "$(cat "${coord_dir}/pid_b${i}")" || {
    echo "ci: bench shard ${i} did not drain cleanly" >&2
    exit 1
  }
done
cp "${coord_dir}/BENCH_coord.json" "${root}/BENCH_coord.json"

# Phase 2: crash a shard under durable load, restart it, check the
# invariance. Sequential (--threads=1, fixed seed) so the reference
# single-engine stream is identical.
for i in 0 1 2 3; do
  "${root}/build/tools/mergepurge_serve" --port=0 \
    --port-file="${coord_dir}/c_port${i}.txt" --keys=last-name \
    --instance-label="shard-${i}" \
    --data-dir="${coord_dir}/c_data${i}" --fsync=group --keep-wal \
    --batch-delay-ms=1 --log-level=warn 2>"${coord_dir}/c_serve${i}.log" &
  echo $! > "${coord_dir}/pid_c${i}"
done
for i in 0 1 2 3; do
  wait_port "${coord_dir}/c_port${i}.txt" "${coord_dir}/c_serve${i}.log"
done
coord_shards="127.0.0.1:$(cat "${coord_dir}/c_port0.txt"),127.0.0.1:$(cat "${coord_dir}/c_port1.txt"),127.0.0.1:$(cat "${coord_dir}/c_port2.txt"),127.0.0.1:$(cat "${coord_dir}/c_port3.txt")"
"${root}/build/tools/mergepurge_coord" --shards="${coord_shards}" \
  --port=0 --port-file="${coord_dir}/c_coord_port.txt" --keys=last-name \
  --metrics-out="${coord_dir}/coord_metrics.json" \
  --log-level=warn 2>"${coord_dir}/c_coord.log" &
echo $! > "${coord_dir}/pid_cc"
wait_port "${coord_dir}/c_coord_port.txt" "${coord_dir}/c_coord.log"
"${root}/build/tools/mergepurge_loadgen" \
  --port="$(cat "${coord_dir}/c_coord_port.txt")" --records=6000 \
  --threads=1 --match-frac=0 --seed=7 \
  --out="${coord_dir}/c_loadgen.json" 2>"${coord_dir}/c_loadgen.log" &
coord_loadgen_pid=$!
sleep 1.2
kill -9 "$(cat "${coord_dir}/pid_c1")" 2>/dev/null || true
wait "$(cat "${coord_dir}/pid_c1")" 2>/dev/null || true
sleep 0.3
"${root}/build/tools/mergepurge_serve" \
  --port="$(cat "${coord_dir}/c_port1.txt")" --keys=last-name \
  --instance-label=shard-1 \
  --data-dir="${coord_dir}/c_data1" --fsync=group --keep-wal \
  --batch-delay-ms=1 --log-level=warn 2>"${coord_dir}/c_serve1b.log" &
echo $! > "${coord_dir}/pid_c1"
coord_loadgen_status=0
wait "${coord_loadgen_pid}" || coord_loadgen_status=$?
if [ "${coord_loadgen_status}" -ne 0 ]; then
  echo "ci: loadgen did not survive the shard crash (exit ${coord_loadgen_status})" >&2
  cat "${coord_dir}/c_loadgen.log" "${coord_dir}/c_coord.log" >&2
  exit 1
fi
"${root}/build/tools/mergepurge_top" \
  --port="$(cat "${coord_dir}/c_coord_port.txt")" --json --count=1 \
  > "${coord_dir}/c_stats.json"
# Reference: the identical sequential stream through one engine.
"${root}/build/tools/mergepurge_serve" --port=0 \
  --port-file="${coord_dir}/ref_port.txt" --keys=last-name \
  --batch-delay-ms=1 --log-level=warn 2>"${coord_dir}/ref_serve.log" &
echo $! > "${coord_dir}/pid_ref"
wait_port "${coord_dir}/ref_port.txt" "${coord_dir}/ref_serve.log"
"${root}/build/tools/mergepurge_loadgen" \
  --port="$(cat "${coord_dir}/ref_port.txt")" --records=6000 \
  --threads=1 --match-frac=0 --seed=7 --out="${coord_dir}/ref_loadgen.json"
"${root}/build/tools/mergepurge_top" \
  --port="$(cat "${coord_dir}/ref_port.txt")" --json --count=1 \
  > "${coord_dir}/ref_stats.json"
python3 - "${coord_dir}/c_stats.json" "${coord_dir}/ref_stats.json" <<'EOF'
import json, sys
coord = json.load(open(sys.argv[1]))
ref = json.load(open(sys.argv[2]))
retries = coord["counters"]["coord.shard_retries"]
assert retries > 0, "shard kill -9 caused zero coordinator retries; the kill missed the load"
unreachable = [s["shard"] for s in coord["shards"] if "error" in s]
assert not unreachable, f"shards unreachable after restart: {unreachable}"
assert coord["records"] == 6000, f"global closure lost records: {coord['records']}"
ce, se = coord["entities"], ref["entities"]
assert ce <= se, (
    f"sharded run SPLIT entities ({ce} > single-engine {se}): a cross-boundary match was lost")
assert se - ce <= max(5, se // 500), (
    f"sharded run over-merged ({ce} vs single-engine {se})")
print(f"ci: crash invariance ok: {retries} shard retries, {ce} global entities vs {se} single-engine")
EOF
kill -TERM "$(cat "${coord_dir}/pid_cc")"
coord_status=0
wait "$(cat "${coord_dir}/pid_cc")" || coord_status=$?
if [ "${coord_status}" -ne 0 ]; then
  echo "ci: crash-phase coordinator did not drain cleanly (exit ${coord_status})" >&2
  cat "${coord_dir}/c_coord.log" >&2
  exit 1
fi
"${root}/build/tools/validate_report" \
  --file="${coord_dir}/coord_metrics.json" outcome \
  config/shards config/service/records config/service/entities \
  counters/coord.route_records counters/coord.replica_records \
  counters/coord.shard_retries \
  histograms/coord.fanout_us histograms/coord.closure_merge_us \
  gauges/coord.global_records gauges/coord.global_entities
for i in 0 1 2 3; do
  kill -TERM "$(cat "${coord_dir}/pid_c${i}")" 2>/dev/null || true
  wait "$(cat "${coord_dir}/pid_c${i}")" || {
    echo "ci: crash-phase shard ${i} did not drain cleanly" >&2
    exit 1
  }
done
kill -TERM "$(cat "${coord_dir}/pid_ref")" 2>/dev/null || true
wait "$(cat "${coord_dir}/pid_ref")" || true

# Latency-regression gates: compare the fresh service bench (from the
# e2e above) and a fresh sorted-neighborhood bench against the committed
# baselines in bench/baselines/, failing on a >25% p50 / best-seconds
# regression. An improvement beyond the margin prints a re-baseline
# reminder (see tools/bench_compare.cc).
echo "=== bench gates ==="
"${root}/build/bench/bench_snm" --records=20000 --window=10 --repeat=3 \
  --seed=42 --out="${root}/BENCH_snm.json"
# The report's counters describe the best run only, the same run its
# passes describe; every match the scan counts has a fired rule; and the
# window-scan layer numbers derived from that run are present and
# positive.
python3 - "${root}/BENCH_snm.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
counters = report["counters"]
counted = counters["snm.comparisons"]
passes = sum(p["comparisons"] for p in report["passes"])
assert counted == passes, (
    f"snm.comparisons {counted} != sum of passes[].comparisons {passes}")
fired = sum(v for k, v in counters.items() if k.startswith("rules.fired."))
assert fired == counters["snm.matches"], (
    f"rules.fired.* sum to {fired}, snm.matches is {counters['snm.matches']}")
for key in ("ns_per_comparison", "distance_calls_per_comparison"):
    value = report["config"].get(key)
    assert isinstance(value, (int, float)) and value > 0, (
        f"config.{key} missing or not positive: {value!r}")
print(f"ci: bench_snm scope ok: {counted} comparisons in the best run, "
      f"{report['config']['ns_per_comparison']:.0f} ns and "
      f"{report['config']['distance_calls_per_comparison']:.2f} distance "
      f"calls per comparison")
EOF
"${root}/build/tools/bench_compare" \
  --baseline="${root}/bench/baselines/BENCH_service.json" \
  --fresh="${root}/BENCH_service.json" \
  --metric=config/summary/latency_request/p50_us --max-regress-pct=25
"${root}/build/tools/bench_compare" \
  --baseline="${root}/bench/baselines/BENCH_snm.json" \
  --fresh="${root}/BENCH_snm.json" \
  --metric=config/best_seconds --max-regress-pct=25

echo "ci: plain, asan/ubsan, tsan and lock-discipline gates passed; tidy + rulecheck + obs + service e2e + crash-recovery e2e + coordinator e2e + bench gates validated"
