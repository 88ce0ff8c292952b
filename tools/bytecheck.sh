#!/bin/sh
# usage: bytecheck.sh SRC_TREE OUT_DIR -- two gen-data (noisy; noiseless with a part-chunk tail), five trains (every strategy, and the baseline on the pool and on one thread), seven evals (every head, the fce head on one and on three threads, and the fce head on the train split); sha256 of every output
# Every command runs inside OUT_DIR on relative paths, so no output (resolved_config.txt names the dataset and
# out_dir) depends on where OUT_DIR is, and two trees hashed into different directories can be compared.
set -e
SRC=$(cd "$1" && pwd); OUT=$2
rm -rf "$OUT"; mkdir -p "$OUT"; cd "$OUT"
export PYTHONPATH="$SRC/src" OPENBLAS_NUM_THREADS=1
msml() { python3 -c "from msml.cli import entry; entry()" "$@"; }
printf 'num_samples = 400\nnum_groups = 40\nseed = 11\nnoise_sigma = 0.08\ncooccurrence_pairs = 0:1:0.2, 2:3:0.15\n' > spec.txt
msml gen-data --spec spec.txt --out data
printf 'num_samples = 777\nnoise_sigma = 0\nseed = 11\n' > spec_noiseless.txt
msml gen-data --spec spec_noiseless.txt --out data_noiseless
for run in two_stream:global two_stream:local two_stream:local_fixed baseline:global; do
  model=${run%%:*}; strategy=${run##*:}
  printf 'dataset = data\nmodel = %s\nstrategy = %s\nepochs = 3\nlearning_rate = 0.001\nseed = 5\nout_dir = run_%s_%s\n' \
    "$model" "$strategy" "$model" "$strategy" > "cfg_${model}_${strategy}.txt"
  msml train --config "cfg_${model}_${strategy}.txt"
done
# training must not depend on the thread count: this model.ckpt and history.csv must hash like run_baseline_global's
sed 's/^out_dir = .*/out_dir = run_baseline_global_1thread/' cfg_baseline_global.txt > cfg_baseline_global_1thread.txt
MSML_THREADS=1 msml train --config cfg_baseline_global_1thread.txt
msml eval --checkpoint run_two_stream_global/model.ckpt --data data --head fce --out eval_fce/report.json
# scoring must not depend on the thread count: this report must hash like eval_fce's
MSML_THREADS=1 msml eval --checkpoint run_two_stream_global/model.ckpt --data data --head fce --out eval_fce_1thread/report.json
# nor on a pool of three, which cuts the batches into three shares: this report must hash like eval_fce's too
MSML_THREADS=3 msml eval --checkpoint run_two_stream_global/model.ckpt --data data --head fce --out eval_fce_3threads/report.json
# the train split is read in both of load_folds' passes: standardized as float64, then scored as float32
msml eval --checkpoint run_two_stream_global/model.ckpt --data data --split train --head fce --out eval_fce_train/report.json
msml eval --checkpoint run_two_stream_global/model.ckpt --data data --head msml --out eval_msml/report.json
msml eval --checkpoint run_two_stream_global/model.ckpt --data data --head fused --out eval_fused/report.json
msml eval --checkpoint run_baseline_global/model.ckpt --data data --head ce --out eval_ce/report.json
find . -type f \( -name images.bin -o -name labels.csv -o -name splits.json -o -name manifest.txt \
  -o -name model.ckpt -o -name history.csv -o -name resolved_config.txt -o -name report.json \) | sort | xargs sha256sum
