#!/bin/sh
# Smoke test for the networked quickstart: build every command, start
# ptserved over a fresh store, then drive the full workflow remotely —
# generate data, ingest it over HTTP with ptload -remote, and query it
# back with ptquery -remote. Exercises startup, ingest, query, reports,
# health, metrics, remote and local ptdiagnose (including the not-found
# hint), remote and local ptcompare (one output), and graceful SIGTERM
# shutdown (drain + checkpoint).
# A second pass starts a fresh durable store, loads enough results to
# compact and then a little more, kills the server without a checkpoint,
# and verifies that the logs held only what no segment did, that recovery
# loses nothing and re-attaches the segments without re-counting their
# rows, and that a graceful shutdown leaves no tail log behind. It ends by
# deleting one IRS execution from that store, whose results the count then
# lacks exactly, and reopening it.
set -eu

workdir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

# start_server LOGFILE ARGS... — boot ptserved in the background and wait
# for readiness; on timeout, fail fast with the server's log tail instead
# of leaving only a silent curl retry loop behind.
start_server() {
    log=$1
    shift
    bin/ptserved "$@" >"$log" 2>&1 &
    pid=$!
    for i in $(seq 1 50); do
        if bin/ptquery -remote "$base" -report stats >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "ptserved exited during startup; log tail:" >&2
            tail -n 20 "$log" >&2
            pid=""
            exit 1
        fi
        sleep 0.2
    done
    echo "ptserved did not become ready; log tail:" >&2
    tail -n 20 "$log" >&2
    exit 1
}

echo "== build all commands"
go build -o "$workdir/bin/" ./cmd/...

cd "$workdir"
addr=127.0.0.1:7075
base="http://$addr"

# checkpointed DIR fails unless DIR holds what a checkpoint leaves: no
# perftrack.snap and no tail log, a manifest naming all sixteen tables, and
# a perftrack.wal holding the schema alone — byte for byte what a fresh
# store's checkpoint (ddlref) leaves there.
checkpointed() {
    [ ! -e "$1/perftrack.snap" ] || { echo "$1: perftrack.snap after a checkpoint" >&2; exit 1; }
    if ls "$1"/segments/tail-*.log >/dev/null 2>&1; then
        echo "$1: tail logs left after a checkpoint" >&2
        exit 1
    fi
    cmp -s "$1/perftrack.wal" ddlref/perftrack.wal || { echo "$1: perftrack.wal holds more than the schema" >&2; exit 1; }
    named=$(tr -c 'a-z_' '\n' <"$1/segments/MANIFEST" | sort -u | grep -cxE "$tables")
    [ "$named" = 16 ] || { echo "$1: the manifest names $named of the 16 tables" >&2; exit 1; }
}
tables='application|execution|focus|focus_framework|focus_has_resource|metric|performance_result|performance_tool'
tables="$tables|resource_attribute|resource_constraint|resource_has_ancestor|resource_has_descendant|resource_item"
tables="$tables|result_has_focus|result_histogram|units"

echo "== generate a small dataset"
bin/ptinit -db ddlref >/dev/null
bin/ptinit -db store -machines
bin/ptgen -kind smg-bgl -out raw -execs 2 -np 64
bin/ptdfgen -index raw/index.txt -out ptdf

echo "== start ptserved"
start_server served.log -db store -addr "$addr"

echo "== remote load"
bin/ptload -remote "$base" ptdf/*.ptdf

echo "== remote queries"
bin/ptquery -remote "$base" -family 'type=application' -count
count=$(bin/ptquery -remote "$base" -family 'type=application' -count 2>&1 |
    sed -n 's/^pr-filter matches \([0-9]*\) performance results$/\1/p')
[ "$count" -gt 0 ] || { echo "remote query matched nothing" >&2; exit 1; }
bin/ptquery -remote "$base" -family 'type=application' -sort value -limit 5
bin/ptquery -remote "$base" -report executions | grep -q smg-bgl-000
bin/ptquery -remote "$base" -report stats

echo "== remote SQL through the planner"
sqlcount=$(bin/ptsql -remote "$base" \
    "SELECT count(*) FROM performance_result WHERE family = 'type=application'" | sed -n 3p | tr -d ' ')
[ "$sqlcount" = "$count" ] || { echo "ptsql count $sqlcount != ptquery count $count" >&2; exit 1; }
bin/ptsql -remote "$base" -explain \
    "SELECT metric, avg(value) FROM performance_result GROUP BY metric" >/dev/null 2>sqlplan.txt
grep -q 'strategy=' sqlplan.txt
# one printer for both doors: compared with the -db output after shutdown
sqldoors="SELECT id + 999999, value FROM performance_result LIMIT 1"
bin/ptsql -remote "$base" "$sqldoors" > sql_remote.txt
grep -q '^1000000 ' sql_remote.txt

echo "== remote EXPLAIN ANALYZE carries the execution profile"
bin/ptsql -remote "$base" -analyze \
    "SELECT metric, avg(value) FROM performance_result GROUP BY metric" >/dev/null 2>sqlprofile.txt
grep -q 'profile:' sqlprofile.txt
grep -q 'scanned:' sqlprofile.txt

echo "== remote diagnosis"
bin/ptdiagnose -remote "$base" -a smg-bgl-000 -b smg-bgl-001 | grep -q 'diagnosing smg-bgl-000'
bin/ptdiagnose -remote "$base" -attrs | grep -q 'attribute'

echo "== remote comparison"
bin/ptcompare -remote "$base" -a smg-bgl-000 -b smg-bgl-001 > compare_remote.txt
grep -q 'aligned pairs:' compare_remote.txt

echo "== health and metrics"
if command -v curl >/dev/null; then
    curl -fsS "$base/healthz" > health.json
    grep -q '"status": "ok"' health.json
    curl -fsS "$base/metrics" > metrics.txt
    grep -q ptserved_requests_total metrics.txt
    # Latency histograms and datastore counters ride the same exposition.
    grep -q 'ptserved_request_duration_seconds_bucket{route="/v1/query",le="+Inf"}' metrics.txt
    grep -q ptserved_store_batch_commits_total metrics.txt

    echo "== trace a request by ID and fetch its span tree"
    curl -fsS -H 'X-Request-Id: smoke-trace-1' \
        -d '{"families":["type=application"]}' "$base/v1/query" >/dev/null
    curl -fsS "$base/v1/debug/traces/smoke-trace-1" > trace.json
    grep -q '"datastore.prfilter"' trace.json
    curl -fsS "$base/v1/debug/traces" | grep -q '"smoke-trace-1"'

    echo "== self-profile round-trips as PTdf"
    curl -fsS "$base/v1/debug/selfptdf" > self.ptdf
    grep -q '^Application ptserved$' self.ptdf
    bin/ptinit -db selfstore
    bin/ptload -db selfstore self.ptdf >/dev/null
    bin/ptquery -db selfstore -report applications | grep -q '^ptserved$'

    echo "== slow-query capture holds the served SQL with its profile"
    curl -fsS "$base/v1/debug/queries" > queries.json
    grep -q '"sql"' queries.json
    grep -q '"profile"' queries.json
    grep -q '"rows_scanned"' queries.json

    echo "== query-profile telemetry and exemplars ride /metrics"
    curl -fsS "$base/metrics" > metrics2.txt
    grep -q 'ptserved_query_profile_' metrics2.txt
    grep -q 'ptserved_query_profiles_total' metrics2.txt
    # plain 0.0.4 scrapes must stay exemplar-free; the OpenMetrics
    # negotiation carries the exemplars and the # EOF terminator
    ! grep -q '# {trace_id=' metrics2.txt
    curl -fsS -H 'Accept: application/openmetrics-text' "$base/metrics" > metrics-om.txt
    grep -q '# {trace_id=' metrics-om.txt
    tail -1 metrics-om.txt | grep -q '^# EOF$'

    echo "== continuous self-diagnosis over forced telemetry samples"
    curl -fsS "$base/v1/debug/selfdiagnose?sample=1" >/dev/null
    bin/ptquery -remote "$base" -family 'type=application' -count >/dev/null
    curl -fsS "$base/v1/debug/selfdiagnose?sample=1" > selfdiag.json
    grep -q '"status": "ok"' selfdiag.json
    grep -q '"samples": 2' selfdiag.json
fi

echo "== graceful shutdown checkpoints the store"
kill -TERM "$pid"
wait "$pid"
pid=""
checkpointed store

echo "== local ptquery sees the served store"
final=$(bin/ptquery -db store -family 'type=application' -count 2>&1 |
    sed -n 's/^pr-filter matches \([0-9]*\) performance results$/\1/p')
[ "$final" = "$count" ] || { echo "post-shutdown count $final != served count $count" >&2; exit 1; }

echo "== local ptsql: planned and naive answers agree"
sqlq="SELECT metric, count(*), avg(value) FROM performance_result GROUP BY metric ORDER BY metric"
bin/ptsql -db store "$sqlq" > sql_planned.txt
bin/ptsql -db store -naive "$sqlq" > sql_naive.txt
cmp sql_planned.txt sql_naive.txt || { echo "planned and naive SQL diverge" >&2; exit 1; }
bin/ptsql -db store "$sqldoors" > sql_local.txt
diff sql_remote.txt sql_local.txt || { echo "ptsql -remote and -db print one statement differently" >&2; exit 1; }

echo "== local diagnosis and the not-found hint"
bin/ptdiagnose -db store -a smg-bgl-000 -b smg-bgl-001 >diag.txt
grep -q 'diagnosing smg-bgl-000' diag.txt
if bin/ptdiagnose -db store -a smg-bgl-000 -b nope >notfound.txt 2>&1; then
    echo "ptdiagnose with a bogus execution should exit non-zero" >&2
    exit 1
fi
grep -q 'execution "nope" not found' notfound.txt

echo "== local ptcompare prints what the served one did"
bin/ptcompare -db store -a smg-bgl-000 -b smg-bgl-001 > compare_local.txt
diff compare_remote.txt compare_local.txt || { echo "ptcompare -db and -remote diverge" >&2; exit 1; }

echo "== durable engine: load, compact, crash, recover"
# A result-heavy dataset first (two IRS runs: thousands of results, which
# cross the flush threshold and reach segments), then the small one, whose
# 16 results stay in the tables' tail logs.
bin/ptgen -kind irs -out rawirs -execs 2 -np 16 >/dev/null
bin/ptdfgen -index rawirs/index.txt -out ptdfirs >/dev/null 2>&1
ptdfbytes=$(cat ptdfirs/*.ptdf ptdf/*.ptdf | wc -c)
bin/ptinit -db segstore -machines >/dev/null
start_server segserved.log -db segstore -addr "$addr" -storage segment -segment-flush 64

bin/ptload -remote "$base" ptdfirs/*.ptdf ptdf/*.ptdf >/dev/null
segcount=$(bin/ptquery -remote "$base" -family 'type=application' -count 2>&1 |
    sed -n 's/^pr-filter matches \([0-9]*\) performance results$/\1/p')
[ "$segcount" -gt "$count" ] || { echo "segment store served $segcount results, want more than the small dataset's $count" >&2; exit 1; }

# Wait for the background compactor (flush threshold 64 rows) to flush
# the tables into columnar segments and delete the tail logs those
# supersede: a finished pass is counted only after its logs are gone.
for i in $(seq 1 50); do
    if ls segstore/segments/seg-performance_result-*.seg >/dev/null 2>&1 &&
        [ "$(ls segstore/segments/tail-performance_result-*.log 2>/dev/null | wc -l)" -eq 1 ]; then
        break
    fi
    [ "$i" -eq 50 ] && { echo "compactor wrote no segments, or left the logs they supersede" >&2; exit 1; }
    sleep 0.2
done

walbytes=""
if command -v curl >/dev/null; then
    echo "== /v1/stats reports segment storage and logs that hold the uncompacted tail only"
    curl -fsS "$base/v1/stats" > segstats.json
    grep -q '"kind": "segment"' segstats.json
    grep -q '"segments"' segstats.json
    walbytes=$(sed -n 's/^ *"wal_bytes": \([0-9]*\),*$/\1/p' segstats.json)
    [ "$walbytes" -lt "$ptdfbytes" ] || { echo "live logs hold $walbytes bytes for $ptdfbytes bytes of PTdf loaded" >&2; exit 1; }
    curl -fsS "$base/metrics" | grep -q '^ptserved_store_log_bytes_trimmed_total [1-9]'
fi

echo "== kill -9 between compaction and checkpoint"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""
cmp -s segstore/perftrack.wal ddlref/perftrack.wal || { echo "perftrack.wal holds more than the schema after hard kill" >&2; exit 1; }
ls segstore/segments/tail-*.log >/dev/null 2>&1 || { echo "expected the uncompacted tail in tail logs after hard kill" >&2; exit 1; }

echo "== recovery serves every committed batch"
start_server segserved2.log -db segstore -addr "$addr" -storage segment
recovered=$(bin/ptquery -remote "$base" -family 'type=application' -count 2>&1 |
    sed -n 's/^pr-filter matches \([0-9]*\) performance results$/\1/p')
[ "$recovered" = "$segcount" ] || { echo "post-crash count $recovered != $segcount" >&2; exit 1; }
if command -v curl >/dev/null; then
    echo "== recovery kept the segments and did not double-count their rows"
    curl -fsS "$base/v1/stats" > recstats.json
    # "rows segment_rows" of performance_result in storage.engine.per_table
    set -- $(awk '/"per_table": \{/ { p = 1 }
        p && /"performance_result": \{/ { t = 1 }
        t && /"rows":/ { gsub(/[^0-9]/, ""); rows = $0 }
        t && /"segment_rows":/ { gsub(/[^0-9]/, ""); seg = $0 }
        t && /\}/ { print rows + 0, seg + 0; exit }' recstats.json)
    [ "$2" -gt 0 ] || { echo "no segment-resident performance_result rows after recovery" >&2; exit 1; }
    [ "$1" = "$recovered" ] || { echo "performance_result holds $1 rows after recovery, queries see $recovered" >&2; exit 1; }
fi
kill -TERM "$pid"
wait "$pid"
pid=""
checkpointed segstore

echo "== delete one execution: one commit, and the store reopens without it"
countsql() { bin/ptsql -db segstore "SELECT count(*) FROM performance_result$1" | sed -n 3p | tr -d ' '; }
total=$(countsql "")
gone=$(countsql " WHERE execution = 'irs-000'")
[ "$gone" -gt 0 ] || { echo "irs-000 has no results to delete" >&2; exit 1; }
bin/ptquery -db segstore -delete-exec irs-000 >/dev/null
left=$(countsql "")
[ "$left" = "$((total - gone))" ] || { echo "$left results after deleting irs-000's $gone of $total" >&2; exit 1; }
[ "$(countsql " WHERE execution = 'irs-000'")" = 0 ] || { echo "irs-000 still has results" >&2; exit 1; }
[ "$(countsql "")" = "$left" ] || { echo "the store reopened with a different count" >&2; exit 1; }

echo "smoke test passed ($count results served, $recovered recovered on segment engine, $gone deleted)"
