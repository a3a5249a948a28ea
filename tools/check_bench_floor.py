#!/usr/bin/env python3
"""Throughput floor tripwire for CI.

Compares a google-benchmark JSON report against a checked-in floor file
and fails when any covered row's items_per_second drops below
``tolerance`` x floor (default 0.7: a >30% regression against the floor
trips).  The floors are deliberately conservative -- recorded well below
healthy local numbers -- so the check catches order-of-magnitude
accidents (a debug-flag leak, an O(n^2) slip in the hot loop), not
machine-to-machine noise.  Update bench/perf_floors.json when a change
legitimately moves a row; the file documents how its values were picked.

A report recorded with ``--benchmark_repetitions N`` (with or without
``--benchmark_report_aggregates_only=true``) is graded on each row's
``median`` aggregate; a single-run report on its iteration row.

Usage: check_bench_floor.py REPORT.json FLOORS.json
Exit status: 0 ok, 1 regression or missing row, 2 usage/parse error.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    try:
        with open(argv[1]) as f:
            report = json.load(f)
        with open(argv[2]) as f:
            floors = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_bench_floor: {e}", file=sys.stderr)
        return 2

    # Refuse to grade a debug-build report: the bench binary stamps the
    # project build type into the JSON context (imli_build_type -- NOT
    # google-benchmark's own library_build_type, which describes how the
    # benchmark library was compiled) precisely so this cannot happen
    # silently.
    build_type = report.get("context", {}).get("imli_build_type")
    if build_type != "release":
        print(
            "check_bench_floor: report context imli_build_type is "
            f"{build_type!r}, not 'release' -- refusing to grade",
            file=sys.stderr,
        )
        return 1

    tolerance = float(floors.get("tolerance", 0.7))
    benchmarks = report.get("benchmarks", [])
    rows = {b["name"]: b for b in benchmarks if b.get("run_type") != "aggregate"}
    # A repeated run's median aggregate wins over its iteration rows.
    rows.update(
        (b["run_name"], b)
        for b in benchmarks
        if b.get("run_type") == "aggregate"
        and b.get("aggregate_name") == "median"
        and "run_name" in b
    )

    failed = False
    for name, floor in sorted(floors["floors_items_per_second"].items()):
        row = rows.get(name)
        if row is None:
            print(f"FAIL {name}: row missing from the report")
            failed = True
            continue
        measured = row.get("items_per_second")
        if measured is None:
            print(f"FAIL {name}: no items_per_second in the report")
            failed = True
            continue
        limit = tolerance * float(floor)
        verdict = "FAIL" if measured < limit else "ok"
        print(
            f"{verdict:4} {name}: {measured:.3e} items/s "
            f"(floor {float(floor):.3e}, trip below {limit:.3e})"
        )
        failed = failed or measured < limit
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
