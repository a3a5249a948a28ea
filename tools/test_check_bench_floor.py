#!/usr/bin/env python3
"""Self-test for check_bench_floor.py (ctest-invoked, label: obs).

Exercises the tripwire's three contractual behaviours with synthetic
report/floor files in a temp directory:

  1. a report at (or above) its floors passes             -> exit 0
  2. a row more than 30% below its floor trips            -> exit 1
  3. a debug-build report is refused, whatever its rows   -> exit 1

plus aggregates-only reports (graded on the median aggregate, passing
and tripping) and the usage error path (wrong argc -> exit 2).  The checker is pure
stdlib and file-driven, so the test needs no benchmark binary -- it can
run in any build type, including the sanitizer jobs.
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_floor.py")


def write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f)


def make_report(directory, name, items_per_second, build_type="release"):
    path = os.path.join(directory, name)
    write_json(
        path,
        {
            "context": {"imli_build_type": build_type},
            "benchmarks": [
                {
                    "name": "BM_Probe",
                    "run_type": "iteration",
                    "items_per_second": items_per_second,
                }
            ],
        },
    )
    return path


def make_aggregate_report(directory, name, median, mean):
    """An aggregates-only report, as written by --benchmark_repetitions N
    --benchmark_report_aggregates_only=true: no iteration rows at all."""
    path = os.path.join(directory, name)
    rows = [
        {
            "name": f"BM_Probe_{aggregate}",
            "run_name": "BM_Probe",
            "run_type": "aggregate",
            "aggregate_name": aggregate,
            "items_per_second": value,
        }
        for aggregate, value in (("mean", mean), ("median", median),
                                 ("stddev", 1e3))
    ]
    write_json(
        path, {"context": {"imli_build_type": "release"}, "benchmarks": rows}
    )
    return path


def run(*argv):
    return subprocess.run(
        [sys.executable, CHECKER, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main():
    failures = []

    def check(label, proc, want):
        if proc.returncode != want:
            failures.append(
                f"{label}: exit {proc.returncode}, want {want}\n"
                f"--- output ---\n{proc.stdout}"
            )
        else:
            print(f"ok   {label} (exit {proc.returncode})")

    with tempfile.TemporaryDirectory() as tmp:
        floors = os.path.join(tmp, "floors.json")
        write_json(
            floors,
            {"tolerance": 0.7, "floors_items_per_second": {"BM_Probe": 1e6}},
        )

        # 1. At the floor: comfortably above tolerance * floor.
        check(
            "floor-pass",
            run(make_report(tmp, "pass.json", 1e6), floors),
            0,
        )
        # Exactly at the trip limit still passes (the check is strict <).
        check(
            "at-trip-limit",
            run(make_report(tmp, "limit.json", 0.7e6), floors),
            0,
        )
        # 2. More than 30% below the floor trips.
        check(
            "regression-trips",
            run(make_report(tmp, "slow.json", 0.69e6), floors),
            1,
        )
        # A floor row missing from the report is also a failure.
        write_json(
            os.path.join(tmp, "empty.json"),
            {"context": {"imli_build_type": "release"}, "benchmarks": []},
        )
        check(
            "missing-row",
            run(os.path.join(tmp, "empty.json"), floors),
            1,
        )
        # Aggregates-only reports grade the median, not the mean.
        check(
            "aggregates-median-pass",
            run(make_aggregate_report(tmp, "agg_pass.json", 1e6, 0.5e6),
                floors),
            0,
        )
        check(
            "aggregates-median-trips",
            run(make_aggregate_report(tmp, "agg_slow.json", 0.69e6, 2e6),
                floors),
            1,
        )
        # 3. Debug reports are refused even when every row is fast.
        check(
            "debug-refused",
            run(make_report(tmp, "debug.json", 1e9, build_type="debug"),
                floors),
            1,
        )
        # Usage error: wrong argument count.
        check("usage-error", run(floors), 2)

    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("all check_bench_floor self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
