#!/usr/bin/env bash
# Runs each CLI command below at --threads 1, 2 and 3 under each of its
# OPENBLAS_NUM_THREADS settings, and fails unless every output but the
# manifests is byte-equal across the runs.  It also writes the line of
# runs/belief_hash.py, one SHA-256 over every belief byte of five systems on
# both channels from 0 to 40 dB, with OPENBLAS_NUM_THREADS unset and set to
# 1, prints both and fails unless they are equal; CI runs it too:
#
#     PYTHONPATH=$PWD/src bash runs/same_bytes.sh OUTDIR
#
# `scma` is `python -m scma.cli`, the package python imports: an installed
# one, or a checkout's through an absolute PYTHONPATH.  OUTDIR keeps every
# output, so two trees' runs compare with `diff -r -x '*manifest.json'`.
set -euo pipefail

scma() { python -m scma.cli "$@"; }

# same_bytes NAME BLAS CMD...: run CMD at --threads 1, 2 and 3 under each OPENBLAS_NUM_THREADS
# in BLAS ("inherited", "unset" or a count), then cmp all but the manifests with the first run
same_bytes() {
  local name=$1 blas=$2 t b run first= f; shift 2
  for t in 1 2 3; do
    for b in $blas; do
      run="$name/t$t-blas-$b"; mkdir -p "$run"
      (case $b in inherited) ;; unset) unset OPENBLAS_NUM_THREADS ;; *) export OPENBLAS_NUM_THREADS="$b" ;; esac
       "$@" --threads "$t" --out "$run/out")
      first=${first:-$run}
    done
  done
  for f in $(cd "$first" && find . -type f ! -name '*manifest.json'); do
    for run in "$name"/*/; do
      cmp "$first/$f" "$run$f" || { echo "$name: $run$f differs from $first/$f" >&2; return 1; }
    done
  done
}

here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "${1:?usage: runs/same_bytes.sh OUTDIR}"
cd "$1"
# the belief hash covers the factored AWGN matmul's bytes, which the SER CSVs below only sample
mkdir -p belief_hash
(unset OPENBLAS_NUM_THREADS; python "$here/belief_hash.py" > belief_hash/blas-unset.txt)
OPENBLAS_NUM_THREADS=1 python "$here/belief_hash.py" > belief_hash/blas-1.txt
echo "belief hash, OPENBLAS_NUM_THREADS unset: $(cat belief_hash/blas-unset.txt)"
echo "belief hash, OPENBLAS_NUM_THREADS=1: $(cat belief_hash/blas-1.txt)"
test -s belief_hash/blas-unset.txt
cmp belief_hash/blas-unset.txt belief_hash/blas-1.txt || { echo "belief hashes differ" >&2; exit 1; }
scma fixture table2_awgn_6x4 cb.json
scma fixture table3_fading_6x4 cb_fading.json
scma fixture table6_fading_12x6 cb_12x6.json
scma fixture table5_awgn_12x6 cb_awgn_12x6.json
same_bytes de_race inherited scma optimize --template 6x4 --ebno 8 --np 4 --max-iter 2 --frames-per-eval 5000
# bounded pieces on the Rayleigh table path, some of them only a few frames long
same_bytes de_race_fading inherited scma optimize --template 6x4 --channel rayleigh --ebno 14 --np 4 --max-iter 2 --frames-per-eval 5000
same_bytes rayleigh_12x6 inherited scma simulate --codebook cb_12x6.json --channel rayleigh --ebno 12:6:18 --frames 8192
# below 16 dB the AWGN sweeps run the factored tables, whose matmul calls BLAS (at d_f = 3 one
# half's output is the partial table the recursion goes on from); 16-20 dB the per-frame tables
same_bytes awgn_12x6 "unset 1" scma simulate --codebook cb_awgn_12x6.json --ebno 8:4:20 --frames 8192
same_bytes awgn_6x4 "unset 1" scma simulate --codebook cb.json --ebno 4:4:20 --frames 8192
# 2-8 dB stop inside the first wave; 10 dB runs all 20000 frames, 5 blocks, as waves of 3 and 2
same_bytes early_stop inherited scma simulate --codebook cb.json --ebno 2:2:10 --target-errors 100 --max-frames 20000
# the traffic of the sweep-6x4-log benchmark
same_bytes early_stop_fading inherited scma simulate --codebook cb_fading.json --channel rayleigh --ebno 6:3:15 --target-errors 200 --max-frames 20000
