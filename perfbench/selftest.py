"""Self-test of the benchmark on tiny inputs (instance (i), 8 samples).

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced pass are correct
and print exactly the metrics BENCHMARK.json names, each with its unit; that
the correctness gate trips on the library's corrupted-sigma fixture; and that
the benchmark exits non-zero without a result in a directory holding only
BENCHMARK.json and the benchmark's own files.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

SEED = 3


def expect(ok, message):
    if not ok:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok    {message}")


def metrics_match(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: every declared metric printed with its unit")
    expect(
        all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
        f"{label}: every value is a number",
    )


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        result, context = run.run(workload, SEED, 1, 0, tiny=True)
        expect(result["correct"] and result["failed"] == 0, f"{workload}: tiny run is correct")
        metrics_match(result, bench["end_to_end"], f"{workload} --trace 0")
        expect(context["fail_rate"] == 0, f"{workload}: fail_rate is 0")

        result, _ = run.run(workload, SEED, 1, 1, tiny=True)
        expect(result["correct"], f"{workload}: traced output equals untraced output")
        metrics_match(result, bench["per_layer"], f"{workload} --trace 1")

        result, context = run.run(workload, SEED, 1, 0, tiny=True, corrupt_sigma=True)
        expect(
            not result["correct"] and context["fail_rate"] > 0,
            f"{workload}: corrupted sigma gives fail_rate {context['fail_rate']:.2f} > 0",
        )

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(
            run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    done = subprocess.run(
        [*bench["command"], "--workload", "algebra-iii", "--seed", str(SEED),
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(
        done.returncode != 0 and not done.stdout.strip(),
        "without the program's sources the benchmark fails and prints no result",
    )
    shutil.rmtree(bare)
    print("selftest passed")


if __name__ == "__main__":
    main()
