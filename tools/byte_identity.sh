#!/usr/bin/env bash
# Byte-identity check: run one fixed list of CLI calls under the src of two
# checkouts and compare every output file, stdout, stderr and exit code.
#
# Usage: tools/byte_identity.sh BASE_CHECKOUT HEAD_CHECKOUT OUT_DIR
#
# The calls are the seven of the study-cli benchmark workload plus `run` at
# the fixed-q1 parameters (p=2, q=1, tau=0.001, lambda=7), the refine-q136
# ones (p=3, q=1.36, tau=0.1) and p=2, q=4/3, tau=100, whose steps retry
# their solve window with a wider margin.  Exits 0 when the two output
# trees are identical and 1 (with the diff) when they are not; it then also
# counts the differing files, and those of them that differ outside their
# `#` comment lines (a file present on one side only counts as such).
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BASE_CHECKOUT HEAD_CHECKOUT OUT_DIR" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
# the call list below is split on whitespace, and it holds a path under OUT_DIR
case $out in
  *[[:space:]]*) echo "OUT_DIR must not contain whitespace: $out" >&2; exit 2 ;;
esac
# a base checkout whose CLI still reads it would write every output there
# instead of --output-dir
unset CW_OUTPUT_DIR
rm -rf "$out/base" "$out/head"

# table initial data that is not bit-symmetric (read as its left half and
# solved there, like the sine), written once from the head checkout's
# benchmark inputs and read by both
table="$out/table.csv"
python -c 'import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); import workloads; workloads.write_table(Path(sys.argv[2]), 0)' \
  "$head/perfbench" "$table"

calls=(
  "classify-p2-q1|classify --set p=2 --set q=1"
  "diagnostics-p4-q1.3|diagnostics --set p=4 --set q=1.3"
  "time-table-q1.2|time-table --set q=1.2 --lambdas 10,100,1000"
  "figures|figures"
  "converge-q1|converge --set q=1"
  "converge-q1.2-fine|converge --set q=1.2 --levels 0.02,0.01,0.005"
  "run-table|run --set initial=file:$table --snapshot-every 20"
  "run-fixed-q1|run --set p=2 --set q=1 --set tau=0.001 --set lambda=7"
  "run-refine-q136|run --set p=3 --set q=1.36 --set tau=0.1"
  "run-p2-q4_3-tau100|run --set p=2 --set q=1.3333333333333333 --set tau=100"
)

for side in base head; do
  root=$base
  [ "$side" = head ] && root=$head
  mkdir -p "$out/$side"
  for call in "${calls[@]}"; do
    name=${call%%|*}
    read -r -a args <<< "${call#*|}"
    # relative output directories, so the paths the CLI prints match
    mkdir -p "$out/$side/$name"
    (
      cd "$out/$side"
      set +e
      PYTHONPATH="$root/src" python -m cwblowup.cli "${args[@]}" --output-dir "$name" \
        > "$name/stdout.txt" 2> "$name/stderr.raw"
      echo $? > "$name/exit_code.txt"
      # a warning's source file, line and code line differ between checkouts;
      # its message is kept
      sed -E -e 's#^[^ ]+\.py:[0-9]+: ##' -e '/^  /d' "$name/stderr.raw" > "$name/stderr.txt"
      rm "$name/stderr.raw"
    )
  done
done

# a file's lines other than its `#` comment lines (the parameter header)
body() { grep -v '^#' "$1" || true; }

if diff -r "$out/base" "$out/head"; then
  echo "byte-identical: $(find "$out/head" -type f | wc -l) files"
else
  differing=0
  beyond=0
  while IFS= read -r rel; do
    if [ -f "$out/base/$rel" ] && [ -f "$out/head/$rel" ]; then
      cmp -s "$out/base/$rel" "$out/head/$rel" && continue
      differing=$((differing + 1))
      cmp -s <(body "$out/base/$rel") <(body "$out/head/$rel") && continue
    else
      differing=$((differing + 1))
    fi
    beyond=$((beyond + 1))
  done < <(cd "$out" && find base head -type f | cut -d/ -f2- | sort -u)
  echo "outputs differ: $differing files differ, $beyond of them outside their # lines" >&2
  exit 1
fi
