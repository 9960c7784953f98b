#!/bin/sh
# mem2_cli command-line contract, end to end on a small simulated genome:
# exit codes (2 usage, 3 I/O, 4 corruption, 5 internal, 6 admission,
# 7 watchdog, 8 cancelled), usage errors that name the offending flag,
# serve output byte-identical to solo `mem`, the --trace / --metrics-out
# exports, and prompt exit of `serve` with long-period timer options.
#
#   sh tests/cli_contract.sh path/to/mem2_cli
#
# Runs in its own temporary directory and prints one line per failed check;
# exits 1 if any check failed.  The SIGINT drain check is timing-based and
# lives in CI instead.
set -u
B=${1:?usage: cli_contract.sh path/to/mem2_cli}
case $B in /*) ;; *) B=$(pwd)/$B ;; esac
W=$(mktemp -d)
trap 'rm -rf "$W"' EXIT
cd "$W" || exit 1
export MEM2_FORCE_ISA=${MEM2_FORCE_ISA:-scalar}
unset MEM2_FAULT

failed=0
bad() { echo "FAIL: $*"; failed=$((failed + 1)); }

# expect CODE CMD...: run CMD (stdout to out.txt, stderr to err.txt) and
# require exit status CODE.
expect() {
  want=$1; shift
  got=0
  "$@" > out.txt 2> err.txt || got=$?
  [ "$got" -eq "$want" ] || { bad "expected exit $want, got $got: $*"; sed 's/^/  | /' err.txt | tail -5; }
}

# usage_err FLAG CMD...: exit 2 and stderr names FLAG.
usage_err() {
  flag=$1; shift
  expect 2 "$@"
  grep -qF -- "$flag" err.txt || bad "stderr does not name '$flag': $*"
}

same() { cmp -s "$1" "$2" || bad "$1 and $2 differ"; }

# --------------------------------------------------------------- fixtures
"$B" simulate ref.fa 60000 7 2> /dev/null &&
"$B" index -t 2 ref.fa ref.m2i 2> /dev/null &&
"$B" wgsim ref.fa r.fq 300 101 11 2> /dev/null &&
"$B" wgsim-pe ref.fa p1.fq p2.fq 200 101 400 40 33 2> /dev/null ||
  { echo "FAIL: fixture generation"; exit 1; }
# Interleave the mates (4 lines of R1, then 4 of R2) for `mem -p`.
awk 'NR == FNR { a[FNR] = $0; next } { b[FNR] = $0 }
     END { for (i = 1; i <= FNR; i += 4) {
             for (j = 0; j < 4; ++j) print a[i + j]
             for (j = 0; j < 4; ++j) print b[i + j] } }' p1.fq p2.fq > pi.fq

# ------------------------------------------------------ exit 2: usage errors
usage_err --no-such-flag "$B" mem --no-such-flag ref.m2i r.fq
usage_err --bsw-threads "$B" mem --bsw-threads 2 ref.m2i r.fq
usage_err --no-such-flag "$B" serve --no-such-flag ref.m2i o.sam=r.fq
expect 2 "$B" index -x ref.fa idx.m2i
expect 2 "$B" mem ref.m2i
expect 2 "$B" mem ref.m2i r.fq p1.fq p2.fq
expect 2 "$B" serve ref.m2i
expect 2 "$B" index ref.fa
expect 2 "$B" no-such-command
expect 2 "$B"
usage_err -t "$B" mem -t
for v in 0 -3 foo 12x '' 2147483648; do
  usage_err -t "$B" mem -t "$v" ref.m2i r.fq
  usage_err -t "$B" index -t "$v" ref.fa idx.m2i
done
usage_err -b "$B" mem -b 0 ref.m2i r.fq
usage_err -k "$B" mem -k 0 ref.m2i r.fq
usage_err -T "$B" mem -T -1 ref.m2i r.fq
usage_err -w "$B" serve -w -1 ref.m2i o.sam=r.fq
usage_err -b "$B" serve -b 0 ref.m2i o.sam=r.fq
for f in --max-streams --max-inflight; do
  usage_err "$f" "$B" serve "$f" 0 ref.m2i o.sam=r.fq
done
for f in --admission-timeout-ms --max-pending --batch-stall-ms \
         --shutdown-grace-ms --cancel-after-ms; do
  usage_err "$f" "$B" serve "$f" -1 ref.m2i o.sam=r.fq
  usage_err "$f" "$B" serve "$f" 2147483648 ref.m2i o.sam=r.fq
done
usage_err --metrics-interval "$B" serve --metrics-interval 0 ref.m2i o.sam=r.fq
usage_err --metrics-interval "$B" serve --metrics-interval 3601 ref.m2i o.sam=r.fq
usage_err --ingest "$B" mem --ingest bogus ref.m2i r.fq
usage_err --fault "$B" mem --fault align.worker:0 ref.m2i r.fq
usage_err --fault "$B" mem --fault :3 ref.m2i r.fq
usage_err o.sam "$B" serve ref.m2i o.sam
expect 2 env MEM2_FORCE_ISA=bogus "$B" mem ref.m2i r.fq
grep -q "unknown ISA name" err.txt || bad "MEM2_FORCE_ISA=bogus: no 'unknown ISA name'"
# Paired mode rounds an odd -b up to even; INT_MAX has no even successor
# in range and is a usage error, not an overflow.
usage_err -b "$B" mem -b 2147483647 ref.m2i p1.fq p2.fq
usage_err -b "$B" mem -p -b 2147483647 ref.m2i pi.fq
usage_err -b "$B" serve -b 2147483647 ref.m2i o.sam=p1.fq,p2.fq

# -------------------------------------------------- exits 3, 4, 5, 6, 7, 8
expect 3 "$B" mem ref.m2i /does/not/exist.fq
expect 3 "$B" mem ref.m2i r.fq p2.fq   # R1 has more reads than R2
grep -q "has fewer reads than" err.txt || bad "mate-count mismatch message"
expect 3 "$B" serve ref.m2i o.sam=/does/not/exist.fq
head -c 20000 ref.m2i > bad.m2i
expect 4 "$B" mem bad.m2i r.fq
expect 5 "$B" mem --fault align.worker ref.m2i r.fq
expect 5 env MEM2_FAULT=align.worker "$B" mem ref.m2i r.fq
expect 6 "$B" serve --max-streams 1 ref.m2i a.sam=r.fq b.sam=r.fq
expect 7 env MEM2_FAULT=align.worker.stall \
  "$B" serve --batch-stall-ms 200 ref.m2i w.sam=r.fq
expect 8 env MEM2_FAULT=align.worker.stall \
  "$B" serve --cancel-after-ms 300 ref.m2i c.sam=r.fq
expect 0 "$B" serve --admission-timeout-ms 15000 --max-streams 1 ref.m2i \
  q1.sam=r.fq q2.sam=r.fq
same q1.sam q2.sam

# Damaged FASTQ: strict fails fast (exit 3), skip resyncs and reports.
{ head -n 8 r.fq; printf '@broken\nACGT\n+\nII\n'; tail -n +9 r.fq; } > dmg.fq
expect 3 "$B" mem ref.m2i dmg.fq
expect 0 "$B" mem --ingest skip ref.m2i dmg.fq
grep -q "skipped 1 damaged record" err.txt || bad "--ingest skip: no skip report"
expect 0 "$B" serve ref.m2i dmg.sam=dmg.fq,skip

# ------------------------------------------- byte identity across drivers
"$B" mem -t 1 ref.m2i r.fq > se1.sam 2> /dev/null || bad "mem -t 1 SE"
"$B" mem -t 4 -b 64 ref.m2i r.fq > se4.sam 2> /dev/null || bad "mem -t 4 SE"
same se1.sam se4.sam
"$B" mem --baseline ref.m2i r.fq > base.sam 2> /dev/null || bad "mem --baseline"
grep -v '^@' base.sam > base.body; grep -v '^@' se1.sam > se1.body
same base.body se1.body
"$B" mem -t 1 ref.m2i p1.fq p2.fq > pe1.sam 2> /dev/null || bad "mem PE"
"$B" mem -t 4 -b 50 ref.m2i p1.fq p2.fq > pe4.sam 2> /dev/null || bad "mem -t 4 PE"
same pe1.sam pe4.sam
expect 0 "$B" mem -p -b 3 ref.m2i pi.fq
grep -q "using -b 4" err.txt || bad "mem -p -b 3: no rounding to 4"
same out.txt pe1.sam
"$B" mem -p ref.m2i pi.fq > pei.sam 2> /dev/null || bad "mem -p"
same pei.sam pe1.sam
expect 0 "$B" serve -w 4 -b 64 ref.m2i sse.sam=r.fq sse2.sam=r.fq \
  spe.sam=p1.fq,p2.fq
same sse.sam se1.sam
same sse2.sam se1.sam
same spe.sam pe1.sam

# ------------------------------------------------- observability exports
spans='smem sal chain bsw sam misc batch queue-wait sink-write pair bsw-round'
families='mem2_batches_total mem2_records_total mem2_reads_total
  mem2_sw_smems_found_total mem2_batch_latency_seconds_bucket
  mem2_queue_wait_seconds_count mem2_stage_seconds_bucket
  mem2_span_seconds_total mem2_wall_seconds mem2_metrics_snapshots_total'
check_exports() {  # $1 label, $2 trace, $3 metrics, $4 extra families
  for s in $spans; do
    grep -qF "\"name\":\"$s\"" "$2" || bad "$1 trace lacks span '$s'"
  done
  for f in $families $4; do
    grep -q "^$f" "$3" || bad "$1 metrics lack family '$f'"
  done
}
expect 0 "$B" mem -t 2 --trace mt.json --metrics-out mm.prom ref.m2i p1.fq p2.fq
same out.txt pe1.sam
check_exports mem mt.json mm.prom mem2_queue_hwm
expect 0 "$B" serve -w 2 --metrics-interval 1 --trace st.json \
  --metrics-out sm.prom ref.m2i o1.sam=r.fq op.sam=p1.fq,p2.fq
same op.sam pe1.sam
check_exports serve st.json sm.prom \
  'mem2_streams_completed_total mem2_admission_wait_seconds_count
   mem2_streams_active mem2_streams_rejected_total'

# ---------------------- serve exits when its streams do, not on a timer
expect 0 timeout 20 "$B" serve --metrics-interval 30 ref.m2i mi.sam=r.fq
expect 0 timeout 20 "$B" serve --cancel-after-ms 30000 ref.m2i ca.sam=r.fq
same mi.sam se1.sam

if [ "$failed" -ne 0 ]; then
  echo "cli_contract: $failed check(s) failed"
  exit 1
fi
echo "cli_contract: all checks passed"
