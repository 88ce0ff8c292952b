#!/bin/sh
# usage: bytecheck.sh SRC_TREE OUT_DIR -- gen-data, four trains (every strategy and the baseline), five evals (every head); sha256 of every output
set -e
SRC=$1; OUT=$2
rm -rf "$OUT"; mkdir -p "$OUT"
export PYTHONPATH="$SRC/src" OPENBLAS_NUM_THREADS=1
msml() { python3 -c "from msml.cli import entry; entry()" "$@"; }
printf 'num_samples = 400\nnum_groups = 40\nseed = 11\nnoise_sigma = 0.08\ncooccurrence_pairs = 0:1:0.2, 2:3:0.15\n' > "$OUT/spec.txt"
msml gen-data --spec "$OUT/spec.txt" --out "$OUT/data"
for run in two_stream:global two_stream:local two_stream:local_fixed baseline:global; do
  model=${run%%:*}; strategy=${run##*:}; dir="$OUT/run_${model}_${strategy}"
  printf 'dataset = %s\nmodel = %s\nstrategy = %s\nepochs = 3\nlearning_rate = 0.001\nseed = 5\nout_dir = %s\n' \
    "$OUT/data" "$model" "$strategy" "$dir" > "$OUT/cfg_${model}_${strategy}.txt"
  msml train --config "$OUT/cfg_${model}_${strategy}.txt"
done
msml eval --checkpoint "$OUT/run_two_stream_global/model.ckpt" --data "$OUT/data" --head fce --out "$OUT/eval_fce/report.json"
# scoring must not depend on the thread count: this report must hash like eval_fce's
MSML_THREADS=1 msml eval --checkpoint "$OUT/run_two_stream_global/model.ckpt" --data "$OUT/data" --head fce \
  --out "$OUT/eval_fce_1thread/report.json"
msml eval --checkpoint "$OUT/run_two_stream_global/model.ckpt" --data "$OUT/data" --head msml --out "$OUT/eval_msml/report.json"
msml eval --checkpoint "$OUT/run_two_stream_global/model.ckpt" --data "$OUT/data" --head fused --out "$OUT/eval_fused/report.json"
msml eval --checkpoint "$OUT/run_baseline_global/model.ckpt" --data "$OUT/data" --head ce --out "$OUT/eval_ce/report.json"
cd "$OUT" && find . -type f \( -name images.bin -o -name labels.csv -o -name splits.json -o -name manifest.txt \
  -o -name model.ckpt -o -name history.csv -o -name resolved_config.txt -o -name report.json \) | sort | xargs sha256sum
