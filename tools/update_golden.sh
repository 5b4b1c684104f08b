#!/usr/bin/env bash
# Rewrites the golden outputs from a build:
#   tools/update_golden.sh [BUILD_DIR]      (default: build)
# Each line of tests/golden/cases.txt is "<name> <binary> [args...]"; the
# binary's stdout becomes tests/golden/<name>.out. Run it only when a
# change is meant to move a simulated number, and say why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${1:-build}
while read -r name binary args; do
  case "$name" in '' | '#'*) continue ;; esac
  echo "== $name"
  # Unquoted: arguments split on whitespace, as the CMake registration does.
  # shellcheck disable=SC2086
  "$build/$binary" $args < /dev/null > "tests/golden/$name.out"
done < tests/golden/cases.txt
