#!/usr/bin/env bash
# Service smoke test: build the CLI, serve a generated library on an
# ephemeral port, exercise /healthz, /v1/search, the mutation lifecycle
# (ingest, remove, compact), a burst of concurrent searches through the
# coalescing layer, and /metrics with curl, then SIGTERM the server and
# assert it drains to a clean exit. A second phase round-trips the
# mmap-backed tier: build -o (v3, the only format written) → serve
# -mmap straight from it → search/ingest/remove/compact against the
# mapped library, and assert the mapped-bytes gauge reports the mapping;
# a v1 and a v2 stream header must be refused by search, serve and
# serve -mmap with the legacy-format error. A third phase
# serves with -wire-addr and drives the binary wire protocol through
# the biohd wire client: pipelined searches, classify, stats, ping,
# then asserts the biohd_wire_* metric series — the frames-per-write
# histogram must sum to the responses sent — and a clean drain. A
# fourth phase exercises the COBS bit-sliced backend end to end:
# build -backend cobs → serve the saved collection -mmap with both HTTP
# and wire listeners → search over each transport, and assert /v1/stats
# and biohd_index_info name the cobs backend and the scans are
# attributed to the mapped tier. On both wire-enabled servers the body
# of `biohd wire -stats` must equal /v1/stats, residentBytes aside.
#
# Run via `make smoke` (CI runs it too). Needs only bash, curl, awk, sed.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
watchdog_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    [ -n "$watchdog_pid" ] && kill "$watchdog_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/biohd" ./cmd/biohd

# Where the platform maps files, -mmap must map: a heap fallback there
# is a failure, not a portability allowance.
must_map=no
case "$(go env GOOS)/$(go env GOARCH)" in linux/amd64|linux/arm64) must_map=yes ;; esac
require_mapped() { # $1 = serve log
    [ "$must_map" = no ] || grep -q 'load mode: mapped' "$1" \
        || { cat "$1"; echo "FATAL: -mmap did not map on a platform that can"; exit 1; }
}

# same_stats asserts the wire STATS frame and /v1/stats report the same
# body: both are one stats read of the index. residentBytes is dropped —
# it is a mincore count that may move between the two reads.
same_stats() { # $1 = http base, $2 = wire addr
    local h w
    h=$(curl -sf "$1/v1/stats" | sed -E 's/"residentBytes":[0-9]+,//')
    w=$("$workdir/biohd" wire -addr "$2" -stats | sed -E 's/"residentBytes":[0-9]+,//')
    [ -n "$h" ] && [ "$h" = "$w" ] \
        || { echo "FATAL: wire -stats differs from /v1/stats:"; echo "  http $h"; echo "  wire $w"; exit 1; }
}

echo "== generate references"
"$workdir/biohd" gen -kind covid -n 4 -len 4000 -o "$workdir/refs.fa"

# A 32-base pattern planted in the first reference: skip the FASTA
# header, concatenate the sequence lines, take bases 100..131.
pattern=$(awk '/^>/{n++; next} n==1{printf "%s", $0}' "$workdir/refs.fa" | cut -c101-132)
[ ${#pattern} -eq 32 ] || { echo "FATAL: pattern extraction failed: '$pattern'"; exit 1; }

echo "== serve"
"$workdir/biohd" serve -ref "$workdir/refs.fa" -addr 127.0.0.1:0 -quiet \
    >"$workdir/serve.log" 2>&1 &
server_pid=$!

# Watchdog: if anything below wedges, kill the server after 60s so the
# `wait` cannot hang forever.
( sleep 60; kill -9 "$server_pid" 2>/dev/null ) &
watchdog_pid=$!

# The banner line is "serving N references (M buckets) on http://ADDR (drain D)".
base=""
for _ in $(seq 1 100); do
    base=$(awk '/^serving /{for (i=1; i<=NF; i++) if ($i ~ /^http:/) print $i}' \
        "$workdir/serve.log" 2>/dev/null || true)
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/serve.log"; echo "FATAL: server died"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { cat "$workdir/serve.log"; echo "FATAL: no serving banner"; exit 1; }
echo "   $base"

echo "== /healthz"
for _ in $(seq 1 50); do
    curl -sf "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -sf "$base/healthz" | grep -q ok

echo "== /v1/search"
search=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"pattern\":\"$pattern\"}" "$base/v1/search")
echo "$search" | grep -q '"matches":\[{' || { echo "FATAL: no match in: $search"; exit 1; }

echo "== ingest /v1/refs"
plasmid="ACGTTGCAACGGTTAACCGGATCCGAGCTCGATATCAAGCTTATCGATACCGTCGACCTCGAGG"
[ ${#plasmid} -eq 64 ] || { echo "FATAL: bad plasmid literal"; exit 1; }
ingest=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"id\":\"plasmid\",\"sequence\":\"$plasmid\"}" "$base/v1/refs")
echo "$ingest" | grep -q '"id":"plasmid"' || { echo "FATAL: ingest failed: $ingest"; exit 1; }

# The ingested reference is immediately searchable.
psearch=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"pattern\":\"${plasmid:0:32}\"}" "$base/v1/search")
echo "$psearch" | grep -q '"ref":"plasmid"' || { echo "FATAL: ingested ref not searchable: $psearch"; exit 1; }

echo "== remove /v1/refs/plasmid"
removed=$(curl -sf -X DELETE "$base/v1/refs/plasmid")
echo "$removed" | grep -q '"id":"plasmid"' || { echo "FATAL: remove failed: $removed"; exit 1; }
psearch=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"pattern\":\"${plasmid:0:32}\"}" "$base/v1/search")
echo "$psearch" | grep -q '"ref":"plasmid"' && { echo "FATAL: removed ref still searchable: $psearch"; exit 1; }

echo "== /v1/compact"
compacted=$(curl -sf -X POST "$base/v1/compact")
echo "$compacted" | grep -q '"tombstoneRatio":0' || { echo "FATAL: compact left tombstones: $compacted"; exit 1; }

echo "== concurrent searches (coalescing)"
pids=()
for i in $(seq 1 8); do
    curl -sf -X POST -H 'Content-Type: application/json' \
        -d "{\"pattern\":\"$pattern\"}" "$base/v1/search" >"$workdir/conc.$i" &
    pids+=("$!")
done
for p in "${pids[@]}"; do wait "$p"; done
for i in $(seq 1 8); do
    grep -q '"matches":\[{' "$workdir/conc.$i" \
        || { echo "FATAL: concurrent search $i failed: $(cat "$workdir/conc.$i")"; exit 1; }
done

echo "== /metrics"
metrics=$(curl -sf "$base/metrics")
for want in \
    'biohd_http_requests_total{path="/v1/search",status="2xx"} 11' \
    'biohd_http_requests_total{path="/v1/refs",status="2xx"} 2' \
    'biohd_http_requests_total{path="/v1/compact",status="2xx"} 1' \
    'biohd_http_request_seconds_bucket' \
    'biohd_core_bucket_probes_total' \
    'biohd_core_blocked_probes_total' \
    'biohd_core_blocked_windows_total' \
    'biohd_core_sketch_rows_total' \
    'biohd_core_sketch_survivors_total' \
    'biohd_core_sketch_predicted_survivor_ratio' \
    'biohd_library_segments' \
    'biohd_library_tombstone_ratio 0' \
    'biohd_core_segment_seals_total' \
    'biohd_core_compactions_total' \
    'biohd_coalesce_queue_depth' \
    'biohd_coalesce_wait_seconds_count'; do
    echo "$metrics" | grep -qF "$want" || { echo "FATAL: /metrics missing: $want"; exit 1; }
done

# Coalescer accounting: every admitted lookup ran in exactly one probe
# block or was vacated, so the occupancy histogram's sum (lookups over
# all executed blocks) plus the vacated count is the admitted count.
metric() { echo "$metrics" | awk -v m="$1" '$1 == m {print $2}'; }
cjobs=$(metric biohd_coalesce_jobs_total)
cvacated=$(metric biohd_coalesce_vacated_total)
cslots=$(metric biohd_coalesce_block_occupancy_sum)
cblocks=$(metric biohd_coalesce_block_occupancy_count)
awk -v j="$cjobs" -v v="$cvacated" -v s="$cslots" -v b="$cblocks" 'BEGIN {
    if (j == "" || v == "" || s == "" || b == "" || b == 0) { print "FATAL: coalesce series missing or no block ran"; exit 1 }
    printf "coalescer: %d lookups in %d blocks (mean occupancy %.2f), %d vacated\n", j, b, s / b, v
    if (j < 11) { printf "FATAL: %d lookups admitted, want at least the 11 searches\n", j; exit 1 }
    if (s + v != j) { printf "FATAL: %d block slots + %d vacated != %d admitted lookups\n", s, v, j; exit 1 }
}'

echo "== SIGTERM drain"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    cat "$workdir/serve.log"
    echo "FATAL: server exited $rc after SIGTERM, want 0"
    exit 1
fi
kill "$watchdog_pid" 2>/dev/null || true
watchdog_pid=""

echo "== v1/v2 library files are refused"
# Only the v3 container is read: a v1 or v2 stream header makes every
# open path exit non-zero with the core's typed message (timeout guards
# a serve that would otherwise start listening) before anything listens.
for version in 1 2; do
    legacy="$workdir/legacy-v$version.lib"
    printf "BIOHDLIB\\00${version}\\000\\000\\000" >"$legacy"   # magic, version u32 LE
    for args in "search -lib $legacy -pattern ACGTACGTACGTACGTACGTACGTACGTACGT" \
        "serve -lib $legacy -addr 127.0.0.1:0" "serve -lib $legacy -mmap -addr 127.0.0.1:0"; do
        # shellcheck disable=SC2086 # args is a word list on purpose
        if timeout 20 "$workdir/biohd" $args >"$workdir/legacy.log" 2>&1; then
            cat "$workdir/legacy.log"; echo "FATAL: biohd $args accepted a v$version file"; exit 1
        fi
        grep -q 'v1/v2 library files are no longer read' "$workdir/legacy.log" \
            || { cat "$workdir/legacy.log"; echo "FATAL: biohd $args did not print the legacy-format error"; exit 1; }
        ! grep -q '^serving ' "$workdir/legacy.log" \
            || { cat "$workdir/legacy.log"; echo "FATAL: biohd $args started listening"; exit 1; }
    done
done

echo "== build -o, serve -mmap"
hdc_build=$("$workdir/biohd" build -ref "$workdir/refs.fa" -o "$workdir/lib.v3")
echo "$hdc_build" | grep -q 'format v3' \
    || { echo "FATAL: build did not report the format it wrote: $hdc_build"; exit 1; }
"$workdir/biohd" serve -lib "$workdir/lib.v3" -mmap -addr 127.0.0.1:0 -quiet \
    >"$workdir/serve-mmap.log" 2>&1 &
server_pid=$!
( sleep 60; kill -9 "$server_pid" 2>/dev/null ) &
watchdog_pid=$!
grep -q 'load mode: heap fallback' "$workdir/serve-mmap.log" 2>/dev/null && \
    echo "   (platform cannot map; exercising the heap fallback)"

base=""
for _ in $(seq 1 100); do
    base=$(awk '/^serving /{for (i=1; i<=NF; i++) if ($i ~ /^http:/) print $i}' \
        "$workdir/serve-mmap.log" 2>/dev/null || true)
    [ -n "$base" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/serve-mmap.log"; echo "FATAL: mmap server died"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { cat "$workdir/serve-mmap.log"; echo "FATAL: no serving banner (mmap)"; exit 1; }
echo "   $base"
for _ in $(seq 1 50); do
    curl -sf "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done

require_mapped "$workdir/serve-mmap.log"

echo "== mapped /v1/search"
search=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"pattern\":\"$pattern\"}" "$base/v1/search")
echo "$search" | grep -q '"matches":\[{' || { echo "FATAL: no match from mapped library: $search"; exit 1; }

echo "== mapped mutation lifecycle"
ingest=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"id\":\"plasmid\",\"sequence\":\"$plasmid\"}" "$base/v1/refs")
echo "$ingest" | grep -q '"id":"plasmid"' || { echo "FATAL: mapped ingest failed: $ingest"; exit 1; }
removed=$(curl -sf -X DELETE "$base/v1/refs/plasmid")
echo "$removed" | grep -q '"id":"plasmid"' || { echo "FATAL: mapped remove failed: $removed"; exit 1; }
compacted=$(curl -sf -X POST "$base/v1/compact")
echo "$compacted" | grep -q '"tombstoneRatio":0' || { echo "FATAL: mapped compact left tombstones: $compacted"; exit 1; }

echo "== mapped /metrics"
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -qF 'biohd_library_mapped_bytes' \
    || { echo "FATAL: /metrics missing biohd_library_mapped_bytes"; exit 1; }
echo "$metrics" | grep -qF 'biohd_core_mapped_scans_total' \
    || { echo "FATAL: /metrics missing biohd_core_mapped_scans_total"; exit 1; }
if grep -q 'load mode: mapped' "$workdir/serve-mmap.log"; then
    mapped_bytes=$(echo "$metrics" | awk '/^biohd_library_mapped_bytes /{print $2}')
    [ "${mapped_bytes:-0}" -gt 0 ] || { echo "FATAL: mapped library reports mapped_bytes=$mapped_bytes"; exit 1; }
    mapped_scans=$(echo "$metrics" | awk '/^biohd_core_mapped_scans_total /{print $2}')
    [ "${mapped_scans:-0}" -gt 0 ] || { echo "FATAL: no scans attributed to the mapped tier"; exit 1; }
fi

echo "== SIGTERM drain (mmap)"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    cat "$workdir/serve-mmap.log"
    echo "FATAL: mmap server exited $rc after SIGTERM, want 0"
    exit 1
fi
kill "$watchdog_pid" 2>/dev/null || true
watchdog_pid=""

echo "== serve -wire-addr"
"$workdir/biohd" serve -ref "$workdir/refs.fa" -addr 127.0.0.1:0 \
    -wire-addr 127.0.0.1:0 -quiet >"$workdir/serve-wire.log" 2>&1 &
server_pid=$!
( sleep 60; kill -9 "$server_pid" 2>/dev/null ) &
watchdog_pid=$!

# Two banner lines: "serving ... on http://ADDR ..." then
# "wire protocol on ADDR".
base=""
wire_addr=""
for _ in $(seq 1 100); do
    base=$(awk '/^serving /{for (i=1; i<=NF; i++) if ($i ~ /^http:/) print $i}' \
        "$workdir/serve-wire.log" 2>/dev/null || true)
    wire_addr=$(awk '/^wire protocol on /{print $4}' \
        "$workdir/serve-wire.log" 2>/dev/null || true)
    [ -n "$base" ] && [ -n "$wire_addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/serve-wire.log"; echo "FATAL: wire server died"; exit 1; }
    sleep 0.1
done
[ -n "$wire_addr" ] || { cat "$workdir/serve-wire.log"; echo "FATAL: no wire banner"; exit 1; }
echo "   http $base, wire $wire_addr"
for _ in $(seq 1 50); do
    curl -sf "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done

echo "== wire ping"
wping=$("$workdir/biohd" wire -addr "$wire_addr" -ping)
echo "$wping" | grep -q pong \
    || { echo "FATAL: wire ping failed: $wping"; exit 1; }

echo "== wire pipelined search"
wsearch=$("$workdir/biohd" wire -addr "$wire_addr" -pattern "$pattern" -n 8)
echo "$wsearch" | grep -q '8 pipelined responses identical' \
    || { echo "FATAL: pipelined responses diverged: $wsearch"; exit 1; }
echo "$wsearch" | grep -q '"matches":\[{' \
    || { echo "FATAL: no match over wire: $wsearch"; exit 1; }

echo "== wire classify"
read_seq=$(awk '/^>/{n++; next} n==1{printf "%s", $0}' "$workdir/refs.fa" | cut -c201-500)
wclassify=$("$workdir/biohd" wire -addr "$wire_addr" -classify "$read_seq")
echo "$wclassify" | grep -q '"votes"' \
    || { echo "FATAL: wire classify failed: $wclassify"; exit 1; }

echo "== wire stats"
wstats=$("$workdir/biohd" wire -addr "$wire_addr" -stats)
echo "$wstats" | grep -q '"references":4' \
    || { echo "FATAL: wire stats failed: $wstats"; exit 1; }
same_stats "$base" "$wire_addr"

echo "== wire /metrics"
metrics=$(curl -sf "$base/metrics")
for want in \
    'biohd_wire_frames_total{opcode="search"}' \
    'biohd_wire_frames_total{opcode="classify"}' \
    'biohd_wire_frames_total{opcode="stats"}' \
    'biohd_wire_frame_seconds_bucket' \
    'biohd_wire_pipeline_depth_bucket' \
    'biohd_wire_write_frames_bucket' \
    'biohd_wire_connections'; do
    echo "$metrics" | grep -qF "$want" || { echo "FATAL: /metrics missing: $want"; exit 1; }
done
# Every response frame goes out in exactly one socket write, so the
# frames-per-write sum is the number of responses: one per request
# frame but CANCEL, which is never answered.
wresponses=$(echo "$metrics" | awk '$1 ~ /^biohd_wire_frames_total[{]/ && $1 !~ /opcode="cancel"/ {s += $2} END {print s + 0}')
wframes=$(metric biohd_wire_write_frames_sum)
wwrites=$(metric biohd_wire_write_frames_count)
awk -v r="$wresponses" -v f="$wframes" -v w="$wwrites" 'BEGIN {
    if (f == "" || w == "" || w == 0) { print "FATAL: biohd_wire_write_frames missing or no write observed"; exit 1 }
    printf "wire: %d response frames in %d socket writes (mean %.2f frames per write)\n", f, w, f / w
    if (f != r) { printf "FATAL: %d frames written != %d response frames sent\n", f, r; exit 1 }
}'

echo "== SIGTERM drain (wire)"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    cat "$workdir/serve-wire.log"
    echo "FATAL: wire server exited $rc after SIGTERM, want 0"
    exit 1
fi
kill "$watchdog_pid" 2>/dev/null || true
watchdog_pid=""

echo "== build -backend cobs"
# Capture first, grep second: `biohd | grep -q` under pipefail races
# grep's early exit against biohd's remaining output lines (SIGPIPE).
cobs_build=$("$workdir/biohd" build -backend cobs -ref "$workdir/refs.fa" -o "$workdir/lib.cobs")
echo "$cobs_build" | grep -q 'cobs backend' \
    || { echo "FATAL: cobs build did not report its backend: $cobs_build"; exit 1; }

echo "== serve -mmap (cobs)"
"$workdir/biohd" serve -lib "$workdir/lib.cobs" -mmap -addr 127.0.0.1:0 \
    -wire-addr 127.0.0.1:0 -quiet >"$workdir/serve-cobs.log" 2>&1 &
server_pid=$!
( sleep 60; kill -9 "$server_pid" 2>/dev/null ) &
watchdog_pid=$!

base=""
wire_addr=""
for _ in $(seq 1 100); do
    base=$(awk '/^serving /{for (i=1; i<=NF; i++) if ($i ~ /^http:/) print $i}' \
        "$workdir/serve-cobs.log" 2>/dev/null || true)
    wire_addr=$(awk '/^wire protocol on /{print $4}' \
        "$workdir/serve-cobs.log" 2>/dev/null || true)
    [ -n "$base" ] && [ -n "$wire_addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$workdir/serve-cobs.log"; echo "FATAL: cobs server died"; exit 1; }
    sleep 0.1
done
[ -n "$base" ] && [ -n "$wire_addr" ] || { cat "$workdir/serve-cobs.log"; echo "FATAL: no serving banner (cobs)"; exit 1; }
echo "   http $base, wire $wire_addr"
for _ in $(seq 1 50); do
    curl -sf "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done

require_mapped "$workdir/serve-cobs.log"

echo "== cobs /v1/search"
search=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d "{\"pattern\":\"$pattern\"}" "$base/v1/search")
echo "$search" | grep -q '"matches":\[{' || { echo "FATAL: no match from cobs library: $search"; exit 1; }

echo "== cobs wire search"
wsearch=$("$workdir/biohd" wire -addr "$wire_addr" -pattern "$pattern" -n 4)
echo "$wsearch" | grep -q '4 pipelined responses identical' \
    || { echo "FATAL: cobs pipelined responses diverged: $wsearch"; exit 1; }
echo "$wsearch" | grep -q '"matches":\[{' \
    || { echo "FATAL: no match over wire from cobs library: $wsearch"; exit 1; }

echo "== cobs /v1/stats and /metrics name the backend"
stats=$(curl -sf "$base/v1/stats")
echo "$stats" | grep -q '"backend":"cobs"' \
    || { echo "FATAL: /v1/stats backend wrong: $stats"; exit 1; }
metrics=$(curl -sf "$base/metrics")
echo "$metrics" | grep -qF 'biohd_index_info{backend="cobs"} 1' \
    || { echo "FATAL: /metrics missing cobs biohd_index_info"; exit 1; }
same_stats "$base" "$wire_addr"
if grep -q 'load mode: mapped' "$workdir/serve-cobs.log"; then
    echo "$stats" | grep -q '"mappedBytes":[1-9]' \
        || { echo "FATAL: mapped cobs /v1/stats reports no mapping: $stats"; exit 1; }
    mapped_scans=$(echo "$metrics" | awk '/^biohd_core_mapped_scans_total /{print $2}')
    [ "${mapped_scans:-0}" -gt 0 ] || { echo "FATAL: no cobs scans attributed to the mapped tier"; exit 1; }
else
    grep -q 'load mode: heap fallback (this platform' "$workdir/serve-cobs.log" \
        || { cat "$workdir/serve-cobs.log"; echo "FATAL: cobs -mmap neither mapped nor explained its fallback"; exit 1; }
fi

echo "== SIGTERM drain (cobs)"
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    cat "$workdir/serve-cobs.log"
    echo "FATAL: cobs server exited $rc after SIGTERM, want 0"
    exit 1
fi

echo "smoke OK"
