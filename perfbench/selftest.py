#!/usr/bin/env python3
"""Self-test of the benchmark on tiny traces (about a minute).

    python3 perfbench/selftest.py

For each workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run does the same for
every per-layer metric, that the gate passes on correct code, and that it
bites: one ElasticHH vote bumped after the pass must count as exactly one
failure and make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY_PACKETS = 20_000


def expected(section: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def tiny(name: str, **kw) -> tuple[dict, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        record = run.run_workload(name, seconds=0, packets=TINY_PACKETS,
                                  out=run.OUT / "selftest", **kw)
    return record["result"], buf.getvalue()


def main() -> int:
    problems = []
    for section, traced in (("end_to_end", False), ("per_layer", True)):
        want = expected(section)
        for name in run.WORKLOADS:
            result, printed = tiny(name, traced=traced)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} {section}: names/units differ: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, "
                                f"unit mismatches {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            for k, unit in want.items():
                if not any(line.split()[:1] == [k] and line.split()[-1] == unit
                           for line in printed.splitlines()):
                    problems.append(f"{name}: {k} not printed with unit {unit}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{name} {section}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name} {section}: gate did not pass on correct code: {result}")
    for name in run.WORKLOADS:
        result, _ = tiny(name, corrupt=True)
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{name}: a bumped vote gave {result['failed']} failures, "
                            f"correct={result['correct']}; expected exactly 1 and incorrect")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
