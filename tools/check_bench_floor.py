#!/usr/bin/env python3
"""Bench-floor guard: fail CI when a recorded wall-clock rate or a host
cost regresses.

Usage: check_bench_floor.py RECORD [floors.json]

RECORD is either a bench's JSON record (BENCH_engine_rate.json, the same
file CI uploads as an artifact) or what tc_bench printed for one workload:
"<workload> <metric> <value> <unit> <sim|host>" lines, then the result
JSON on the last line. The floors file names the rows it guards under the
record's bench ("engine_rate") or under "tc_bench <workload>". A row with
an events_per_second floor fails when its rate has dropped more than the
recorded tolerance below the floor; a row with a ceiling (lower is
better, such as host_peak_rss_mib) fails when its value exceeds it. Rows
without a recorded floor or ceiling are ignored, so adding bench rows or
metrics never breaks the guard.
"""
import json
import os
import sys


def load_rows(path):
    """Returns (bench, {row name: row}) for either kind of RECORD."""
    with open(path) as f:
        text = f.read()
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        record = None
    if isinstance(record, dict) and "bench" in record:
        return record["bench"], {row["name"]: row for row in record.get("rows", [])}
    # tc_bench output: every metric line starts with the workload's name.
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    workload = lines[0].split()[0]
    if not result.get("correct") or result.get("failed"):
        sys.exit(f"FAIL: {path}: tc_bench {workload} failed its checks")
    return f"tc_bench {workload}", result["metrics"]


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    record_path = sys.argv[1]
    floors_path = (
        sys.argv[2]
        if len(sys.argv) > 2
        else os.path.join(os.path.dirname(__file__), "bench_floors.json")
    )
    bench, rows = load_rows(record_path)
    with open(floors_path) as f:
        floors = json.load(f)

    bench_floors = floors.get(bench)
    if not bench_floors:
        print(f"no floors recorded for bench '{bench}'; nothing to check")
        return 0

    failures = 0
    for name, floor in bench_floors.items():
        row = rows.get(name)
        if row is None:
            print(f"FAIL: floor-guarded row '{name}' missing from {record_path}")
            failures += 1
            continue
        if "ceiling" in floor:
            value = float(row["value"])
            ceiling = float(floor["ceiling"])
            failed = value > ceiling
            print(
                f"{'FAIL' if failed else 'ok'}: {name}: {value:.1f} "
                f"{row.get('unit', '')} (ceiling {ceiling:g})"
            )
        else:
            rate = float(row["events_per_second"])
            minimum = float(floor["events_per_second"]) * (
                1.0 - float(floor.get("tolerance", 0.2))
            )
            failed = rate < minimum
            print(
                f"{'FAIL' if failed else 'ok'}: {name}: {rate:.0f} events/s "
                f"(floor {floor['events_per_second']}, min allowed {minimum:.0f})"
            )
        failures += failed
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
