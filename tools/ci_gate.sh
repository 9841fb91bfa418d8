#!/usr/bin/env sh
# CI gate: configure, build, run the test suite, rerun the serve and
# fault-injection suites under ThreadSanitizer and ASan + UBSan, then
# hold the bench fixture against the committed golden through the
# prism_doctor regression comparator, run the chaos, serve, plane and
# live stages and a perfbench smoke run, hold the headline artifact
# against a fresh fig02 sweep, and finish with the timed hot-path
# thresholds. Exit 0 means the tree is healthy AND the fixture sweep's
# and the headline sweep's metrics sit within tolerance of their
# committed documents.
#
# Usage: tools/ci_gate.sh [build-dir]
#        (sanitizer trees go to <build-dir>-tsan and <build-dir>-asan)
#
# Environment:
#   CMAKE_ARGS   extra arguments for the configure step
#   CTEST_ARGS   extra arguments for ctest (e.g. "-L quick")
#   TOLERANCE    relative tolerance for the bench compares (default 0:
#                the sweeps are deterministic, bytes must agree)
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build"}
tolerance=${TOLERANCE:-0}

echo "== configure =="
# shellcheck disable=SC2086 # CMAKE_ARGS is intentionally word-split
cmake -B "$build" -S "$repo" ${CMAKE_ARGS:-}

echo "== build =="
cmake --build "$build" -j

echo "== test =="
# shellcheck disable=SC2086
(cd "$build" && ctest --output-on-failure ${CTEST_ARGS:-})

echo "== sanitizer gate =="
# ThreadSanitizer over the serving plane and the sweep engine: the
# serve runs in these suites reach the per-shard parallel eviction
# stage at up to 8 threads, after the sequential victim plan, and the
# sweep determinism runs build jobs' generators concurrently, which
# share the stand-alone memo and the power-law table registry. Then
# ASan + UBSan over the fault-injection suite (injected occupancy
# faults push counters to the edge of their range), the serve units,
# the serve engine's determinism runs (the stream-major request
# indices and the tail records the plan reads), the simulator's step
# loop (the core scheduler's winner tree, each core's look-ahead
# access and the prefetch addresses computed from it), the cache's
# one-byte block owners (the shared-cache units and the SoA
# reference-model cross-check) and the live plane (the observer's
# snapshot renderers and their render, parse and grade round trip),
# halting on the first undefined-behaviour report. Each tree builds
# only what it runs; they sit next to the main build directory.
tsan_build="$build-tsan"
# shellcheck disable=SC2086
cmake -B "$tsan_build" -S "$repo" -DPRISM_TSAN=ON ${CMAKE_ARGS:-}
cmake --build "$tsan_build" -j --target test_serve test_serve_determinism \
    test_sweep_determinism
(cd "$tsan_build" && ctest -L tsan -R 'serve|sweep' --output-on-failure)
asan_build="$build-asan"
# shellcheck disable=SC2086
cmake -B "$asan_build" -S "$repo" -DPRISM_SANITIZE=ON ${CMAKE_ARGS:-}
cmake --build "$asan_build" -j --target test_fault_injection test_serve \
    test_serve_determinism test_system_integration \
    test_step_loop_golden test_clock_tree test_live test_exporter \
    test_soa_equivalence test_shared_cache
for t in test_fault_injection test_serve test_serve_determinism \
    test_system_integration test_step_loop_golden test_clock_tree \
    test_live test_exporter test_soa_equivalence test_shared_cache; do
    UBSAN_OPTIONS=halt_on_error=1 "$asan_build/tests/$t"
done

echo "== bench regression gate =="
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
"$build/tools/prism_bench" fixture --no-timing --out "$out" \
    >/dev/null
"$build/tools/prism_doctor" \
    --compare "$repo/tests/golden/BENCH_fixture.json" \
    "$out/BENCH_fixture.json" --tolerance "$tolerance"

echo "== hot-path gate =="
# Deterministic half: the contract checksums, hit/miss totals and
# interval counts of the pinned 4-/32-core mixes must match the
# committed golden exactly — any drift in victim selection,
# occupancy bookkeeping or interval cadence fails here.
hot_out=$(mktemp -d)
trap 'rm -rf "$out" "$hot_out"' EXIT
"$build/bench/bench_micro_hotpath" --out "$hot_out" --no-timing
"$build/tools/prism_doctor" \
    --compare "$repo/tests/golden/BENCH_hotpath.json" \
    "$hot_out/BENCH_hotpath.json" --tolerance "$tolerance"
# The timed half runs last, in its own stage, so a host that misses
# its throughput floor still reaches every deterministic stage.

echo "== chaos gate =="
# Salvage: first-attempt crashes and allocation failures must be
# retried to full recovery — the sweep, and its doctor verdict,
# succeed end to end (docs/RELIABILITY.md).
chaos_out=$(mktemp -d)
trap 'rm -rf "$out" "$hot_out" "$chaos_out"' EXIT
"$build/tools/prism_bench" fixture --no-timing --out "$chaos_out" \
    --chaos 'job_crash@3*1,alloc_fail@4*1' --doctor >/dev/null
# Quarantine: a job whose every attempt fails must be quarantined,
# fail the run with a non-zero exit, and FAIL the doctor verdict on
# the emitted manifest — never crash the process.
if "$build/tools/prism_bench" fixture --no-timing \
    --out "$chaos_out" --retries 1 --chaos 'job_crash@4' \
    >/dev/null 2>&1; then
    echo "chaos gate: quarantined sweep must exit non-zero" >&2
    exit 1
fi
if "$build/tools/prism_doctor" "$chaos_out/BENCH_fixture.json" \
    >/dev/null; then
    echo "chaos gate: doctor must FAIL on quarantined jobs" >&2
    exit 1
fi

echo "== serve gate =="
# Serving plane (docs/SERVING.md): a small eviction-heavy session
# must leave a final prism-metrics-v1 snapshot, the run's document,
# that prism_doctor grades over the whole run's history without a
# FAIL — SLO attainment, ΣE/ΣC invariants and the chi-square
# victim-tenant match against Equation 1 all hold.
serve_out=$(mktemp -d)
trap 'rm -rf "$out" "$hot_out" "$chaos_out" "$serve_out"' EXIT
"$build/tools/prism_serve" --tenants 4 --keys 50000 \
    --capacity-mb 8 --interval 8192 --ops 600000 --no-timing \
    --quiet --metrics-out "$serve_out/serve.json"
# (no pipeline here: a FAIL exit from the doctor must stop the gate)
"$build/tools/prism_doctor" "$serve_out/serve.json" \
    > "$serve_out/verdict.txt"
cat "$serve_out/verdict.txt"
grep -q "serve.victim_match" "$serve_out/verdict.txt" || {
    echo "serve gate: victim-match check did not run" >&2
    exit 1
}
# Determinism: the same budgeted session at another thread count
# must reproduce the document byte for byte.
"$build/tools/prism_serve" --tenants 4 --keys 50000 \
    --capacity-mb 8 --interval 8192 --ops 600000 --no-timing \
    --quiet --threads 4 --metrics-out "$serve_out/serve_t4.json"
cmp "$serve_out/serve.json" "$serve_out/serve_t4.json" || {
    echo "serve gate: document differs across --threads" >&2
    exit 1
}
# The same at perfbench serve_write's shape (Zipf 0.8, 50% puts,
# 512-2048 B values): about one eviction per two ops, so each round's
# plan reaches past the LRU tails its shard tasks recorded.
write_tenant="keys=50000,zipf=0.8,get=0.5,vmin=512,vmax=2048"
for threads in 1 4; do
    "$build/tools/prism_serve" --tenant "$write_tenant" \
        --tenant "$write_tenant" --tenant "$write_tenant" \
        --tenant "$write_tenant" --capacity-mb 8 --ops 600000 \
        --no-timing --quiet --threads "$threads" \
        --metrics-out "$serve_out/write_t$threads.json"
done
cmp "$serve_out/write_t1.json" "$serve_out/write_t4.json" || {
    echo "serve gate: write-mix document differs across --threads" >&2
    exit 1
}

echo "== plane gate =="
# The shared control loop (DESIGN.md §8, "One control loop, three
# backends"): PriSM-WM — the shared controller enforced through
# CAT-style way masks — must run end to end in the driver and earn a
# verdict with no FAIL (the plane.way_quant_error check included)
# from prism_doctor, and the plane-labelled equivalence suites must
# prove the shared controller reproduces the committed goldens byte
# for byte at every thread count.
plane_out=$(mktemp -d)
trap 'rm -rf "$out" "$hot_out" "$chaos_out" "$serve_out" \
     "$plane_out"' EXIT
"$build/tools/prism_sim" --mix 403.gcc,186.crafty,179.art,470.lbm \
    --scheme PriSM-WM --instr 200000 --warmup 50000 \
    --interval 2048 --stats-json "$plane_out/wm_stats.json" \
    > /dev/null
"$build/tools/prism_doctor" "$plane_out/wm_stats.json" \
    > "$plane_out/wm_verdict.txt"
cat "$plane_out/wm_verdict.txt"
grep -q "PriSM-WM" "$plane_out/wm_stats.json" || {
    echo "plane gate: PriSM-WM run did not report its scheme" >&2
    exit 1
}
# shellcheck disable=SC2086
(cd "$build" && ctest -L plane --output-on-failure ${CTEST_ARGS:-})

echo "== live gate =="
# Live observability plane (docs/OBSERVABILITY.md, "Live metrics &
# online doctor"): prism_serve runs with periodic prism-metrics-v1
# exposition and the online doctor; for a fixed round budget the
# snapshot must be schema-valid (prism_doctor autodetects it), the
# doctor must not FAIL, and two consecutive budgets at two thread
# counts must each produce byte-identical files. prism_top must
# render the snapshot read-only.
live_out=$(mktemp -d)
trap 'rm -rf "$out" "$hot_out" "$chaos_out" "$serve_out" \
     "$plane_out" "$live_out"' EXIT
for ops in 393216 589824; do
    for threads in 1 8; do
        "$build/tools/prism_serve" --tenants 3 --keys 40000 \
            --capacity-mb 4 --shards 16 --streams 8 --batch 1024 \
            --interval 8192 --ops "$ops" --threads "$threads" \
            --no-timing --quiet --seed 2012 \
            --doctor --metrics-every 6 \
            --metrics-out "$live_out/m_${ops}_t${threads}.json" \
            --metrics-prom "$live_out/m_${ops}_t${threads}.prom" \
            > /dev/null
    done
    cmp "$live_out/m_${ops}_t1.json" \
        "$live_out/m_${ops}_t8.json" || {
        echo "live gate: snapshot differs across --threads" >&2
        exit 1
    }
    cmp "$live_out/m_${ops}_t1.prom" \
        "$live_out/m_${ops}_t8.prom" || {
        echo "live gate: Prometheus text differs across --threads" >&2
        exit 1
    }
    "$build/tools/prism_doctor" "$live_out/m_${ops}_t1.json" \
        > "$live_out/verdict_${ops}.txt"
done
cmp "$live_out/m_393216_t1.json" "$live_out/m_589824_t1.json" \
    >/dev/null 2>&1 && {
    echo "live gate: different budgets produced the same snapshot" >&2
    exit 1
}
"$build/tools/prism_top" "$live_out/m_589824_t1.json" --once \
    > "$live_out/top.txt"
cat "$live_out/top.txt"
grep -q "round" "$live_out/top.txt" || {
    echo "live gate: prism_top did not render the snapshot" >&2
    exit 1
}
# shellcheck disable=SC2086
(cd "$build" && ctest -L live --output-on-failure ${CTEST_ARGS:-})

echo "== benchmark smoke =="
# perfbench compiles ../src through its own CMake glob, so a src/ API
# change can break the benchmark while every ctest passes. Build it
# into the gate's build directory and run every workload tiny, in
# both modes; run.py exits non-zero when the build or a check fails.
CARGO_TARGET_DIR="$build/perfbench" python3 "$repo/perfbench/run.py" \
    --smoke

echo "== headline artifact gate =="
# The committed headline artifact, BENCH_fig02_summary.json, must stay
# what the code produces: the full fig02 sweep at the default scale
# (PRISM_BENCH_SCALE and PRISM_BENCH_WORKLOADS unset) is held against
# it through the same comparator as the fixture. 132 jobs, about
# 100 s at 4 threads.
head_out=$(mktemp -d)
trap 'rm -rf "$out" "$hot_out" "$chaos_out" "$serve_out" \
     "$plane_out" "$live_out" "$head_out"' EXIT
(
    unset PRISM_BENCH_SCALE PRISM_BENCH_WORKLOADS
    "$build/tools/prism_bench" fig02_summary --no-timing \
        --threads "$(nproc)" --out "$head_out" >/dev/null
)
"$build/tools/prism_doctor" \
    --compare "$repo/BENCH_fig02_summary.json" \
    "$head_out/BENCH_fig02_summary.json" --tolerance "$tolerance"

echo "== hot-path timing gate =="
# Timed half of the hot-path gate: accesses/sec on the 32-core mix vs
# the recorded seed baseline and the O(1)-sampler draws/sec A/B,
# thresholds from bench/micro_baseline.hh. The bench exits non-zero
# on regression.
"$build/bench/bench_micro_hotpath" --out "$hot_out" --gate \
    >/dev/null

echo "== gate passed =="
