"""qtorus benchmark: one workload, one seed, closed loop, every output gated.

Usage (from the repository root):

    python3 perfbench/run.py --workload algebra-iii --seed 1 --seconds 36 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  The loop is closed:
one client runs one `qtorus` process at a time, each started after the
previous one exits, and no process is started that would end past
--seconds (at least one always runs).  All of them get the same generated
config, so their stdout must also match byte for byte.

--trace 0 prints the end-to-end metrics, measured on the untraced CLI:
setup_s (median over twenty fresh interpreters that import qtorus.cli and run
load_config and build_instance, half before and half after the loop), the
median over processes of wall_s and cpu_s (user plus system, from
os.wait4), and the largest peak_rss_mb (ru_maxrss).

Times are given at a fixed reference speed.  On a shared host the speed of
this CPU-bound work drifts by up to a factor of two, for seconds to minutes
at a time, so two runs of the same code can differ by that much.  The run
is pinned to one CPU, and while it runs a thread of its own (SpeedProbe)
times a fixed pure-Python loop that uses no qtorus code every
PROBE_PERIOD_S on that CPU.  The times of each set-up launch and each
process are multiplied by REF_S over the mean loop time seen from
PROBE_MARGIN_S before it to PROBE_MARGIN_S after it.  A change to qtorus
moves the scaled times as it moves the raw ones; a slower CPU slows the
process and the loop alike and cancels.  The loops take the CPU from the
process for a few percent of its wall time, the same share in every run.
The raw medians and the loop's times go in the context line.

--trace 1 runs the command once untraced and once under perfbench/tracer.py
and prints the per-layer metrics; trace.overhead_s is the difference of the
two wall times, and the two stdouts must match byte for byte.

The last stdout line is the JSON result; fail_rate is failed / attempted
(an operation is one verify check row, or one search).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_LAUNCHES = 20
PROBE_PERIOD_S = 0.25
PROBE_ROUNDS = 150
PROBE_MARGIN_S = 1.0  # a process is scaled by the loops from this long before it to this long after
# CPU time of one probe loop on a quiet 2-core x86-64 host under CPython
# 3.11; it sets only the unit of the scaled times, which then read as
# seconds on such a host.
REF_S = 0.0065
RUN_LIMIT_S = 170  # a process still running this long into a run is killed and counted as failed

SETUP_CODE = (
    "import argparse, sys\n"
    "from qtorus.cli import build_instance, load_config\n"
    "build_instance(load_config(sys.argv[1]), argparse.Namespace(seed=None, samples=None))\n"
)

CALL_METRICS = {
    "cyclotomic.mul.calls": "cyclotomic:CycNumber.__mul__",
    "cyclotomic.add.calls": "cyclotomic:CycNumber.__add__",
    "cyclotomic.lift.calls": "cyclotomic:CycNumber.lift",
    "cyclotomic.inverse.calls": "cyclotomic:CycNumber.inverse",
    "cyclotomic.root_of_unity.calls": "cyclotomic:root_of_unity",
    "torus.sigma.calls": "torus:TorusSpec.sigma",
    "algebra.tmul.calls": "algebra:tmul",
    "derivations.dbracket.calls": "derivations:dbracket",
    "derivations.dact.calls": "derivations:dact",
    "semidirect.gbracket.calls": "semidirect:gbracket",
    "glmodules.mat_mul.calls": "glmodules:mat_mul",
    "glmodules.span_insert.calls": "glmodules:Span.insert",
    "fmodule.act.calls": "fmodule:act",
    "fmodule.apply_expr.calls": "fmodule:apply_expr",
    "fmodule.expr_first_defect.calls": "fmodule:expr_first_defect",
}
SELF_TIME_LAYERS = ("cyclotomic", "torus", "algebra", "derivations", "semidirect", "glmodules", "fmodule")


class Invocation(NamedTuple):
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(argv, workdir: Path, tag: str, deadline: float) -> Invocation:
    """Run one process to completion; resources come from os.wait4.

    A process still running at `deadline` (a perf_counter value) is killed."""
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        print(f"# {tag}: exit {code}: {tail.strip()}", file=sys.stderr)
    return Invocation(
        code,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out_path.read_bytes(),
    )


def probe_loop_s() -> float:
    """CPU time of a fixed pure-Python loop: products of Fractions summed into
    a dict keyed by exponents mod 4, the shape of cyclotomic arithmetic, but
    with no qtorus code, so only the speed of the CPU moves it."""
    x = {k: Fraction(k + 1, 3) for k in range(4)}
    y = {k: Fraction(2, k + 5) for k in range(4)}
    start = time.thread_time()
    for _ in range(PROBE_ROUNDS):
        z = {}
        for a, u in x.items():
            for b, v in y.items():
                k = (a + b) % 4
                z[k] = z.get(k, 0) + u * v
    return time.thread_time() - start


class SpeedProbe:
    """Times probe_loop_s every PROBE_PERIOD_S on a thread of its own, on the
    CPU the run is pinned to, and scales a process's times by how fast that
    CPU was while the process ran."""

    def __init__(self):
        self.samples = []  # (perf_counter when a loop ended, its CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe")

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        time.sleep(PROBE_MARGIN_S)  # samples after the last process
        self._stop.set()
        self._thread.join()

    def _sample(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            cpu = probe_loop_s()
            self.samples.append((time.perf_counter(), cpu))

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean loop time from PROBE_MARGIN_S before `start` to
        PROBE_MARGIN_S after `end` (perf_counter values); call after the
        probe stops."""
        near = [c for t, c in self.samples if start - PROBE_MARGIN_S <= t <= end + PROBE_MARGIN_S]
        if not near:  # the thread was starved: take the sample closest in time
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return REF_S / statistics.mean(near)


def measure_setup(config: Path) -> float:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
        timeout=RUN_LIMIT_S,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.decode(errors='replace')[-400:]}")
    return elapsed


def run_context():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # an exported checkout has no .git; src_sha256 still identifies the code
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qtorus").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "loadavg_1m_start": os.getloadavg()[0],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def per_layer_metrics(trace: dict, traced: Invocation, untraced: Invocation) -> dict:
    fns = trace["functions"]
    m = {}
    for name, key in CALL_METRICS.items():
        m[name] = (fns.get(key, {}).get("calls", 0), "count")
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = (
            sum(v["self_s"] for k, v in fns.items() if k.startswith(layer + ":")), "s"
        )
    m["cyclotomic.max_conductor"] = (trace["max_conductor"], "conductor")
    tried, hits = trace["search"]["characters_tried"], trace["search"]["hits"]
    m["fmodule.search.characters_tried"] = (tried, "count")
    m["fmodule.search.hit_ratio"] = (hits / tried if tried else 0.0, "ratio")
    spent = {}
    for span in trace["spans"]:
        spent[span["name"]] = spent.get(span["name"], 0.0) + span["end"] - span["start"]
    for suite, names in workloads.SUITE_CHECKS.items():
        m[f"checks.{suite}.s"] = (spent.get(f"suite:{suite}", 0.0), "s")
        for check in names:
            m[f"checks.{check}.s"] = (spent.get(f"check:{check}", 0.0), "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return m


def run(workload, seed, seconds, trace, tiny=False, corrupt_sigma=False):
    """Run one benchmark pass; return (result dict, context dict)."""
    if not (SRC / "qtorus" / "cli.py").is_file():
        raise FileNotFoundError(f"no qtorus sources under {SRC}")
    context = run_context()
    # one CPU for the runner, its probe thread and every process it starts
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    context["cpu"] = cpu
    cfg, cmd, expected = workloads.make_case(workload, seed, tiny, corrupt_sigma)
    workdir = OUT / f"{workload}-s{seed}-t{trace}{'-tiny' if tiny else ''}{'-corrupt' if corrupt_sigma else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(cfg, sort_keys=True), encoding="utf-8")
    cli_args = cmd[:1] + ["--config", str(config)] + cmd[1:]
    qtorus = [sys.executable, "-m", "qtorus.cli", *cli_args]

    deadline = time.perf_counter() + RUN_LIMIT_S
    attempted = failed = 0
    if trace:
        untraced = invoke(qtorus, workdir, "untraced", deadline)
        trace_path = workdir / "trace.json"
        trace_path.unlink(missing_ok=True)  # never read a previous run's trace
        traced = invoke(
            [sys.executable, str(TRACER), str(trace_path), "--", *cli_args], workdir, "traced", deadline
        )
        runs = [untraced, traced]
    else:
        # half the set-up launches before the measured loop and half after;
        # each timing is kept with the perf_counter value at its end
        setup, runs = [], []
        with SpeedProbe() as probe:
            for _ in range(SETUP_LAUNCHES // 2):
                setup.append((measure_setup(config), time.perf_counter()))
            start = time.perf_counter()
            while True:
                runs.append((invoke(qtorus, workdir, f"run{len(runs)}", deadline), time.perf_counter()))
                if runs[-1][1] + runs[-1][0].wall_s > start + seconds:
                    break
            for _ in range(SETUP_LAUNCHES - SETUP_LAUNCHES // 2):
                setup.append((measure_setup(config), time.perf_counter()))
        setup = [(t, probe.scale(end - t, end)) for t, end in setup]
        runs, scales = zip(*((r, probe.scale(end - r.wall_s, end)) for r, end in runs))
    for inv in runs:
        a, f = workloads.grade(workload, expected, inv.code, inv.stdout.decode("utf-8", "replace"))
        if inv.stdout != runs[0].stdout:
            f = a  # same config and seed must give byte-identical output
        attempted += a
        failed += f

    if trace:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                metrics = per_layer_metrics(json.load(fh), traced, untraced)
        except (OSError, json.JSONDecodeError) as exc:
            raise RuntimeError(f"traced run left no trace: {exc}") from exc
    else:
        metrics = {
            "setup_s": (statistics.median(t * f for t, f in setup), "s"),
            "wall_s": (statistics.median(r.wall_s * f for r, f in zip(runs, scales)), "s"),
            "cpu_s": (statistics.median(r.cpu_s * f for r, f in zip(runs, scales)), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
        }
        context["raw_median"] = {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": statistics.median(r.wall_s for r in runs),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
        }
        loops = [c for _, c in probe.samples]
        context["probe_loop_s"] = {
            "ref_s": REF_S,
            "samples": len(loops),
            "min": min(loops),
            "median": statistics.median(loops),
            "max": max(loops),
        }
    context["loadavg_1m_end"] = os.getloadavg()[0]
    context["processes"] = len(runs)
    context["fail_rate"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, context


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, context = run(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("# context " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
