#!/bin/sh
# Every vidqual subcommand rejects options it does not define: exit status
# 2 and one stderr line naming each unknown option, before touching any
# file or socket.  Options a subcommand does define are accepted, so on a
# missing input the run fails later, with the input error (exit 1).
#
#   usage: cli_options_test.sh path/to/vidqual
set -u
cli=$1
missing=/nonexistent/vidqual-cli-options-test
fail=0

# rejected "NAME..." ARGS...: exit 2, each --NAME named on stderr.
rejected() {
  names=$1
  shift
  err=$("$cli" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: exit $rc, want 2: vidqual $*"
    fail=1
  fi
  for name in $names; do
    if ! printf '%s\n' "$err" | grep -q -- "unknown option --$name\$"; then
      echo "FAIL: --$name not named: vidqual $*"
      fail=1
    fi
  done
}

# accepted ARGS...: no option is reported unknown, and the run fails on
# its missing input instead (exit 1).
accepted() {
  err=$("$cli" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 1 ] || printf '%s\n' "$err" | grep -q "unknown option"; then
    echo "FAIL: exit $rc ($err): vidqual $*"
    fail=1
  fi
}

rejected "incremental" analyze --in "$missing.vqtc" --incremental
rejected "workrs" analyze --in "$missing.vqtc" --workrs 3
rejected "workrs bogus" analyze --in "$missing.vqtr" --workrs 3 --bogus
rejected "incremental" monitor --in "$missing.vqtc" --incremental
rejected "incremental" monitor --serve "unix:$missing.sock" --incremental
# --workers is the only parallelism option; shards derive from it.
rejected "shards" analyze --in "$missing.vqtc" --workers 4 --shards 2
rejected "shards" monitor --in "$missing.vqtr" --workers 4 --shards 4
rejected "shards" monitor --serve "unix:$missing.sock" --workers 4 --shards 4
rejected "bogus" generate --out "$missing.csv" --bogus
rejected "bogus" convert --in "$missing.csv" --out "$missing.vqtc" --bogus
rejected "bogus" whatif --in "$missing.csv" --bogus
rejected "bogus" feed --in "$missing.vqtr" --connect "unix:$missing" --bogus
rejected "bogus" timeline --in "$missing.csv" --bogus
rejected "bogus" report --in "$missing.csv" --bogus

accepted analyze --in "$missing.vqtc" --workers 4 \
  --min-sessions 5 --top 3 --on-error quarantine --max-cells 1270 \
  --stats-out "$missing.json" --trace-out "$missing.json"
accepted monitor --in "$missing.vqtr" --min-sessions 5 --workers 4 \
  --delay 2 --checkpoint "$missing.vqck" --stop-after 3
accepted monitor --serve "unix:$missing.sock" --min-sessions 5 \
  --serve-drain --push-deadline-ms 60000 --workers 1 --queue-rows 64 \
  --overload shed --idle-timeout-ms 10 --read-timeout-ms 10 \
  --max-frame-bytes 4096 --max-conns 2
accepted feed --in "$missing.vqtr" --connect "unix:$missing.sock" \
  --rows-per-frame 512
exit $fail
