#!/bin/sh
# smoke.sh — end-to-end smoke test of the dtaintd scan service.
#
# Builds dtaintd, generates a small study firmware image, starts the
# server on an ephemeral port with JSON structured logging, POSTs the
# image to /v1/scan, polls the job until it is done, and asserts the
# report finds at least one vulnerability and has the same top-level
# keys as dtaint -rootfs-all -json (one report schema), dtaint
# -rootfs-all -progress prints function and binary progress lines
# without -trace-out, dtaint -rootfs-all prints the same report at
# -workers 1 and 2 (timings aside), a second dtaint -rootfs-all run over one
# -cache-dir replays cached binaries and the directory holds both
# report (*.json) and summary (*.dtss) entries, /v1/metrics speaks
# Prometheus text to a text/plain client, and the log stream contains a
# valid JSON line for every pipeline stage (scripts/logcheck). It then
# POSTs the image against itself to /v1/diff: with the cache warmed by
# the scan, the self-diff must replay everything (zero re-analyses) and
# report zero new findings. Along the way it watches the scan and the
# diff live over their SSE event streams (ordered ids, progress events —
# function-analysis progress in the scan's — a terminal job.done), probes /healthz and /readyz, and finally SIGTERMs the
# server and asserts /readyz flips to 503 during the drain window.
# Invoked by `make smoke` and by scripts/check.sh.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo ">> smoke: build dtaintd, dtaint and logcheck"
go build -o "$tmp/dtaintd" ./cmd/dtaintd
go build -o "$tmp/dtaint" ./cmd/dtaint
go build -o "$tmp/logcheck" ./scripts/logcheck

echo ">> smoke: generate firmware"
go run ./cmd/fwgen -out "$tmp/corpus" -product DIR-645 -scale 0.05 >/dev/null

echo ">> smoke: start dtaintd on an ephemeral port"
"$tmp/dtaintd" -addr 127.0.0.1:0 -cache-dir "$tmp/cache" \
	-drain-notice 3s \
	-log-format json -log-level debug >"$tmp/dtaintd.log" 2>&1 &
pid=$!

# The server prints "dtaintd: listening on http://HOST:PORT" once the
# listener is up; wait for that line to learn the chosen port.
base=""
for _ in $(seq 1 50); do
	base=$(sed -n 's/^dtaintd: listening on \(http:\/\/[^ ]*\)$/\1/p' "$tmp/dtaintd.log")
	[ -n "$base" ] && break
	kill -0 "$pid" 2>/dev/null || { cat "$tmp/dtaintd.log"; echo "smoke: server died"; exit 1; }
	sleep 0.1
done
[ -n "$base" ] || { cat "$tmp/dtaintd.log"; echo "smoke: server never came up"; exit 1; }

echo ">> smoke: /healthz and /readyz answer 200"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz")" = "200" ] ||
	{ echo "smoke: /healthz not 200"; exit 1; }
[ "$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz")" = "200" ] ||
	{ echo "smoke: /readyz not 200"; exit 1; }

echo ">> smoke: POST /v1/scan ($base)"
resp=$(curl -sf -X POST --data-binary @"$tmp/corpus/DIR-645.fwimg" "$base/v1/scan")
id=$(printf '%s' "$resp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "smoke: no job id in response: $resp"; exit 1; }

# Watch the scan live: the per-job SSE stream closes itself after the
# terminal event, so this curl exits with the job.
echo ">> smoke: open SSE stream for $id"
curl -sN --max-time 60 "$base/v1/jobs/$id/events" >"$tmp/events.sse" &
ssepid=$!

echo ">> smoke: poll job $id"
state=""
for _ in $(seq 1 100); do
	state=$(curl -sf "$base/v1/jobs/$id" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
	case "$state" in
	done | failed) break ;;
	esac
	sleep 0.1
done
[ "$state" = "done" ] || { echo "smoke: job ended in state '$state'"; exit 1; }

# check_sse FILE STAGE...: a captured job stream has ordered ids, a
# progress event over each named stage, and ends with job.done.
check_sse() {
	f=$1
	shift
	ids=$(sed -n 's/^id: \([0-9]*\).*/\1/p' "$f")
	[ -n "$ids" ] || { echo "smoke: SSE stream $f carried no event ids"; exit 1; }
	printf '%s\n' "$ids" | sort -n -c 2>/dev/null ||
		{ echo "smoke: SSE event ids out of order in $f"; exit 1; }
	for stage in "$@"; do
		grep '"type":"progress"' "$f" | grep -q "\"stage\":\"$stage\"" ||
			{ echo "smoke: no $stage progress event in SSE stream $f"; exit 1; }
	done
	last_event=$(sed -n 's/^event: \(.*\)$/\1/p' "$f" | tail -1)
	[ "$last_event" = "job.done" ] ||
		{ echo "smoke: SSE stream $f ended with '$last_event', want job.done"; exit 1; }
}

echo ">> smoke: SSE stream carries ordered progress and a terminal job.done"
wait "$ssepid" || { echo "smoke: SSE curl failed"; exit 1; }
# The scan analyzes its binary fresh, so its span-derived stream also
# carries per-function progress.
check_sse "$tmp/events.sse" binaries function-analysis

echo ">> smoke: fetch report"
report=$(curl -sf "$base/v1/jobs/$id/report")
vulns=$(printf '%s' "$report" | sed -n 's/.*"vulnerabilities": *\([0-9]*\).*/\1/p')
[ -n "$vulns" ] || { echo "smoke: no vulnerability count in report"; exit 1; }
[ "$vulns" -ge 1 ] || { echo "smoke: expected >=1 vulnerability, got $vulns"; exit 1; }

echo ">> smoke: served report and dtaint -rootfs-all -json share top-level keys"
# Both encoders indent by two spaces, so top-level keys are the lines
# with exactly that indent.
topkeys() { sed -n 's/^  "\([^"]*\)":.*/\1/p' | sort; }
served_keys=$(printf '%s\n' "$report" | topkeys)
"$tmp/dtaint" -fw "$tmp/corpus/DIR-645.fwimg" -rootfs-all -json >"$tmp/cli.json"
cli_keys=$(topkeys <"$tmp/cli.json")
[ -n "$served_keys" ] && [ "$served_keys" = "$cli_keys" ] ||
	{ echo "smoke: top-level keys differ: served [$served_keys] vs CLI [$cli_keys]"; exit 1; }

echo ">> smoke: dtaint -progress renders the event journal without a tracer"
"$tmp/dtaint" -fw "$tmp/corpus/DIR-645.fwimg" -rootfs-all -progress >/dev/null 2>"$tmp/progress.txt"
grep -Eq '^dtaint: function-analysis: [0-9]+/[0-9]+ functions \([0-9]+%\)' "$tmp/progress.txt" ||
	{ echo "smoke: no function-analysis progress line:"; cat "$tmp/progress.txt"; exit 1; }
grep -Eq '^dtaint: scanned .* \((ok|cached)\) in ' "$tmp/progress.txt" ||
	{ echo "smoke: no per-binary scanned line:"; cat "$tmp/progress.txt"; exit 1; }

echo ">> smoke: dtaint -rootfs-all output is identical at -workers 1 and 2"
# The one-binary image's analysis borrows the worker its wave leaves
# idle at -workers 2; only the timings may differ.
for w in 1 2; do
	"$tmp/dtaint" -fw "$tmp/corpus/DIR-645.fwimg" -rootfs-all -workers "$w" |
		sed -e 's/; wall .*$//' -e 's/ *([^)]*)$//' >"$tmp/workers-$w.txt"
done
cmp -s "$tmp/workers-1.txt" "$tmp/workers-2.txt" ||
	{ diff "$tmp/workers-1.txt" "$tmp/workers-2.txt"; echo "smoke: -rootfs-all output depends on -workers"; exit 1; }

echo ">> smoke: one dtaint -cache-dir feeds both cache tiers"
for run in cold warm; do
	"$tmp/dtaint" -fw "$tmp/corpus/DIR-645.fwimg" -rootfs-all -progress \
		-cache-dir "$tmp/cli-cache" >/dev/null 2>"$tmp/cache-$run.txt"
done
grep -Eq '^dtaint: scanned .* \(cached\) in ' "$tmp/cache-warm.txt" ||
	{ echo "smoke: second -cache-dir run replayed nothing:"; cat "$tmp/cache-warm.txt"; exit 1; }
ls "$tmp/cli-cache"/*.json >/dev/null 2>&1 ||
	{ echo "smoke: -cache-dir holds no report (*.json) entries"; exit 1; }
ls "$tmp/cli-cache"/*.dtss >/dev/null 2>&1 ||
	{ echo "smoke: -cache-dir holds no summary (*.dtss) entries"; exit 1; }

echo ">> smoke: POST /v1/diff (image against itself, warmed cache)"
dresp=$(curl -sf -X POST -F old=@"$tmp/corpus/DIR-645.fwimg" -F new=@"$tmp/corpus/DIR-645.fwimg" "$base/v1/diff")
did=$(printf '%s' "$dresp" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[ -n "$did" ] || { echo "smoke: no diff job id in response: $dresp"; exit 1; }
curl -sN --max-time 60 "$base/v1/jobs/$did/events" >"$tmp/diff-events.sse" &
dssepid=$!

echo ">> smoke: poll diff job $did"
state=""
for _ in $(seq 1 100); do
	state=$(curl -sf "$base/v1/jobs/$did" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
	case "$state" in
	done | failed) break ;;
	esac
	sleep 0.1
done
[ "$state" = "done" ] || { echo "smoke: diff job ended in state '$state'"; exit 1; }

echo ">> smoke: diff SSE stream carries progress and a terminal job.done"
wait "$dssepid" || { echo "smoke: diff SSE curl failed"; exit 1; }
check_sse "$tmp/diff-events.sse" binaries

dreport=$(curl -sf "$base/v1/jobs/$did/report")
reanalyzed=$(printf '%s' "$dreport" | sed -n 's/.*"reanalyzed": *\([0-9]*\).*/\1/p')
newfound=$(printf '%s' "$dreport" | sed -n 's/.*"newFindings": *\([0-9]*\).*/\1/p')
[ "$reanalyzed" = "0" ] || { echo "smoke: self-diff re-analyzed $reanalyzed binaries, want 0"; exit 1; }
[ "$newfound" = "0" ] || { echo "smoke: self-diff reported $newfound new findings, want 0"; exit 1; }

curl -sf "$base/v1/metrics" >/dev/null

echo ">> smoke: /v1/metrics speaks Prometheus text"
promtext=$(curl -sf -H 'Accept: text/plain' "$base/v1/metrics")
printf '%s' "$promtext" | grep -q '^# TYPE dtaintd_jobs_done_total counter' ||
	{ echo "smoke: no Prometheus exposition:"; printf '%s\n' "$promtext" | head -5; exit 1; }
printf '%s' "$promtext" | grep -q '^dtaint_diff_binaries_replayed_total' ||
	{ echo "smoke: no diff counters in Prometheus exposition"; exit 1; }

echo ">> smoke: SIGTERM flips /readyz to 503 during the drain window"
kill -TERM "$pid"
drain=""
for _ in $(seq 1 20); do
	drain=$(curl -s -o /dev/null -w '%{http_code}' "$base/readyz" || true)
	[ "$drain" = "503" ] && break
	sleep 0.1
done
[ "$drain" = "503" ] || { echo "smoke: draining /readyz answered '$drain', want 503"; exit 1; }
wait "$pid" || true
pid=""

echo ">> smoke: one JSON log line per pipeline stage"
"$tmp/logcheck" <"$tmp/dtaintd.log"

echo "smoke: OK ($vulns vulnerabilities reported)"
