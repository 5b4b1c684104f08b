#!/usr/bin/env bash
# Runs one golden case: check.sh EXPECTED BINARY [ARGS...]. Fails when the
# binary exits non-zero or its stdout differs from EXPECTED, printing the
# diff. tests/golden/cases.txt lists the cases.
set -euo pipefail
expected=$1
shift
actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
"$@" < /dev/null > "$actual"
diff -u "$expected" "$actual"
