#!/bin/bash
# Runs every table/figure reproduction binary plus the micro-benchmarks,
# in experiment order, writing the combined log to bench_output.txt. The
# micro-benchmarks additionally dump machine-readable Google-benchmark
# JSON to BENCH_perf.json (interned KB lookups and the unit linker's hot
# path, blocked vs naive kernels, the DIMQR_THREADS sweeps, the inference
# fast path: batched prefill and greedy decode plus the prompt-prefix
# KV cache on/off under the eval harness, and the serving layer:
# BM_ServeThroughput's batch-width sweep and BM_ServeP99UnderBurst's
# tail latency / shed rate / deadline-miss rate under oversubscribed
# bursts, all on the simulated tick clock).
#
# Timings only mean something from an optimized build, so everything runs
# out of a dedicated Release tree (build-rel/) — never the default dev
# tree. perf_microbench itself refuses to start from a non-Release build.
# All scratch output (combined log, packed snapshot, smaps samples) lands
# under build-rel/bench-out/, never in the source tree; only the
# machine-readable BENCH_perf.json is written at the repo root, because
# EXPERIMENTS.md links to it as a published artifact.
set -e
cd "$(dirname "$0")"

# An interrupted run must not leave strays behind: the resident smoke test
# backgrounds probe processes, and fleet_eval forks worker processes (which
# die with their supervisor via PDEATHSIG, so reaping our direct children
# is enough to take the whole tree down).
trap 'pkill -P $$ 2>/dev/null || true' EXIT INT TERM

cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release \
      -DDIMQR_BUILD_TESTS=OFF -DDIMQR_BUILD_EXAMPLES=OFF
cmake --build build-rel -j

OUT=build-rel/bench-out
mkdir -p "$OUT"
SNAP="$OUT/artifacts.dqs"

# Pack + verify the artifact snapshot once, then smoke-check page sharing:
# four concurrent processes map the same file with overlapping holds, and
# at least one must observe the pages as Shared_* (one physical copy).
./build-rel/bench/dimqr_snapshot pack "$SNAP"
./build-rel/bench/dimqr_snapshot verify "$SNAP"

# Exit-code contract (scripted health checks branch on these): 3 for an
# I/O problem, 4 for corruption. Probe each class live so a regression in
# the mapping fails the bench run, not a production health check.
set +e
./build-rel/bench/dimqr_snapshot verify "$OUT/does_not_exist.dqs" 2>/dev/null
rc=$?
if [ "$rc" -ne 3 ]; then
  echo "snapshot exit codes: FAILED — missing file returned $rc, want 3" >&2
  exit 1
fi
cp "$SNAP" "$OUT/corrupt.dqs"
size=$(stat -c%s "$OUT/corrupt.dqs")
printf '\xde\xad\xbe\xef' \
  | dd of="$OUT/corrupt.dqs" bs=1 seek=$((size - 8)) conv=notrunc \
       status=none
./build-rel/bench/dimqr_snapshot verify "$OUT/corrupt.dqs" 2>/dev/null
rc=$?
if [ "$rc" -ne 4 ]; then
  echo "snapshot exit codes: FAILED — corrupt file returned $rc, want 4" >&2
  exit 1
fi
set -e
rm -f "$OUT/corrupt.dqs"
echo "snapshot exit codes: OK (3 = I/O error, 4 = corruption)"
for i in 1 2 3 4; do
  ./build-rel/bench/dimqr_snapshot resident "$SNAP" 800 \
      > "$OUT/resident.$i.txt" &
done
wait
if grep -hE '^Shared_(Clean|Dirty):' "$OUT"/resident.*.txt \
    | grep -vq ' 0 kB'; then
  echo "snapshot page sharing: OK (Shared_* pages observed across processes)"
else
  echo "snapshot page sharing: FAILED — no process saw shared pages" >&2
  cat "$OUT"/resident.*.txt >&2
  exit 1
fi

{
  for b in table04_kb_stats fig03_unit_frequency fig04_quantity_kinds \
           table06_dataset_stats table07_dimeval table08_dimperc_vs_base \
           table09_mwp_accuracy fig06_augmentation_rate \
           fig07_tokenization_ablation perf_microbench; do
    echo "############################################################"
    echo "### $b"
    echo "############################################################"
    if [ "$b" = perf_microbench ]; then
      # Record the host's SIMD capability alongside the timings: kernel
      # numbers from different dispatch tiers are not comparable, and the
      # JSON consumers need to know what silicon produced them. Exported
      # as an env var; perf_microbench adds it to the benchmark context.
      CPU_SIMD_FLAGS=$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null \
        | tr ' ' '\n' \
        | grep -E '^(sse4_2|avx|avx2|fma|avx512[a-z0-9]*)$' \
        | paste -sd, -)
      DIMQR_CPU_SIMD_FLAGS="${CPU_SIMD_FLAGS:-none}" \
        ./build-rel/bench/$b --benchmark_out=BENCH_perf.json \
                             --benchmark_out_format=json 2>&1
    else
      ./build-rel/bench/$b --snapshot="$SNAP" 2>&1
    fi
    echo
  done
} | tee "$OUT/bench_output.txt"
