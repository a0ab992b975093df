"""capmimo benchmark: one workload per call, timed end to end and checked.

    python3 perfbench/run.py --workload receiver-ladder --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ``src/``.
Each run of a workload is a fresh process, started and reaped one at a
time (a closed loop with one client). The program runs at its own
defaults: thread settings are recorded, never set. The workload runs
until ``--seconds`` have passed, at least twice, and the benchmark
reports medians. After the timed runs it solves a converged reference
(``reference.py``) to check their output against. ``setup_s`` is the median time a fresh process takes
to ``import capmimo``, sampled before each workload run and after the
last. Every run's output is checked, and all runs of one seed must write
byte-identical output.

``--trace 1`` runs the workload under the span recorder (``spans.py``),
between two untraced runs, and reports per-layer metrics instead; the
tracing overhead is the traced wall time minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, each starting with ``#``, give the same metrics as a table, the
inputs and the environment. The exit code is 1 when a correctness gate
failed, 2 when the program is missing and 3 when the converged reference
failed its own n-versus-2n check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import NotConvergedError
from workloads import WORKLOADS, Check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 2
# fresh imports timed before each workload run and after the last one, so
# the setup_s median samples the whole run rather than one moment of it
SETUP_PER_GAP = 3
# every run must end within 180 s; past this the workload process is killed
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "ref_abs_err_nats": "nats", "mi_rel_err": "ratio", "gap_rel_err": "ratio"}
PER_LAYER = {
    "physics.operator_trace.calls": "count",
    "physics.operator_trace.self_s": "s",
    "physics.operator_trace.useful_ratio": "ratio",
    "physics.kernel_diagonal.calls": "count",
    "physics.kernel_diagonal.self_s": "s",
    "physics.green_offset.evals": "count",
    "physics.green_offset.self_s": "s",
    "spectra.assemble_kernel_matrix.calls": "count",
    "spectra.assemble_kernel_matrix.self_s": "s",
    "spectra.assemble_kernel_matrix.flops": "flop",
    "spectra.assemble_channel_matrix.self_s": "s",
    "spectra.gram_from_channel.self_s": "s",
    "spectra.hermitian_eigenvalues.calls": "count",
    "spectra.hermitian_eigenvalues.self_s": "s",
    "spectra.hermitian_eigenvalues.max_dim": "count",
    "spectra.hermitian_eigenvalues.clamped": "count",
    "models.mi_continuous.self_s": "s",
    "models.mi_discrete_rx.self_s": "s",
    "models.mi_discrete_trx.self_s": "s",
    "models.noise_rx.self_s": "s",
    "models.noise_trx.self_s": "s",
    "models.ref_cache.misses": "count",
    "models.ref_cache.hit_ratio": "ratio",
    "models.trace_cache.misses": "count",
    "models.trace_cache.hit_ratio": "ratio",
    "experiments.cells": "count",
    "experiments.workers": "count",
    "experiments.cell_s.p50": "s",
    "experiments.cell_s.max": "s",
    "experiments.ref_s": "s",
    "experiments.sweep.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "reference_path.share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class RunAborted(Exception):
    """The run could not go on: its deadline passed, or capmimo did not import."""


def _on_alarm(signum, frame):
    raise RunAborted(f"the run did not finish within {DEADLINE_S} s")


@dataclass
class Usage:
    """One reaped process, from its own rusage."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int


def run_process(argv: list[str], env: dict, log: Path, deadline: float) -> Usage:
    """Run argv to completion and read its resources with wait4.

    The rusage of the reaped child alone: RUSAGE_CHILDREN would carry the
    largest peak of every earlier child into later runs.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunAborted(f"the run did not finish within {DEADLINE_S} s")
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except RunAborted:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **{k: os.environ.get(k) for k in
               ("CAPMIMO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


class Run:
    """One benchmark invocation: a workload, its seed, a scratch directory."""

    def __init__(self, workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        src = str(ROOT / "src")
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old
        self.runs = 0
        self.spec = None
        if hasattr(workload, "spec"):
            self.spec = work / "spec.json"
            self.spec.write_text(json.dumps(workload.spec()), encoding="utf-8")

    def imports(self, times: list[float]) -> None:
        """Time SETUP_PER_GAP fresh processes that only import capmimo."""
        for _ in range(SETUP_PER_GAP):
            u = run_process([sys.executable, "-c", "import capmimo"], self.env,
                            self.work / "setup.log", self.deadline)
            if u.status != 0:
                raise RunAborted(f"import capmimo exited with status {u.status}")
            times.append(u.wall_s)

    def once(self, trace: bool) -> Output:
        """Run the workload in a fresh process."""
        self.runs += 1
        outdir = self.work / f"run{self.runs}"
        outdir.mkdir()
        out = outdir / self.workload.output_name()
        spans = outdir / "spans.json" if trace else None
        if self.spec is not None:
            body = ["power-ladder", str(self.spec), str(out)]
        else:
            body = ["cli", *self.workload.argv(out)]
        if trace:
            argv = [sys.executable, str(HERE / "child.py"), "--trace", str(spans), *body]
        elif self.spec is not None:
            argv = [sys.executable, str(HERE / "child.py"), *body]
        else:
            argv = [sys.executable, "-m", "capmimo.cli", *body[1:]]
        usage = run_process(argv, self.env, outdir / "stdout.log", self.deadline)
        return Output(usage, out, spans)


@dataclass
class Output:
    """What one workload process left behind."""

    usage: Usage
    path: Path
    spans: Path | None

    def check(self, workload, exact: dict) -> Check:
        check = workload.check(self.path, self.usage.status, exact)
        if self.path.is_file():
            check.digest = hashlib.sha256(self.path.read_bytes()).hexdigest()
        return check


def _gate(checks: list[Check]) -> list[str]:
    gates = [g for c in checks for g in c.gates]
    failed = sum(c.failed for c in checks)
    if failed:
        gates.append(f"{failed} cell(s) or call(s) failed")
    if len({c.digest for c in checks}) != 1:
        gates.append("output differs between runs of one seed")
    return gates


def measure(run: Run, seconds: float) -> tuple[list[Output], list[float]]:
    """Untraced runs until ``seconds`` have passed, at least MIN_REPS of them."""
    setup: list[float] = []
    outputs: list[Output] = []
    start = time.monotonic()
    while len(outputs) < MIN_REPS or time.monotonic() - start < seconds:
        run.imports(setup)
        outputs.append(run.once(trace=False))
        last = outputs[-1].usage.wall_s
        if len(outputs) >= MIN_REPS and time.monotonic() + 1.5 * last > run.deadline:
            break
    run.imports(setup)
    return outputs, setup


def end_to_end(outputs: list[Output], setup: list[float], checks: list[Check]) -> dict:
    usages = [o.usage for o in outputs]
    for u in usages:
        print(f"# run wall_s {u.wall_s:.3f}  cpu_s {u.cpu_s:.3f}  peak_rss_mb {u.peak_rss_mb:.1f}")
    return {"wall_s": statistics.median(u.wall_s for u in usages),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(u.cpu_s for u in usages),
            "peak_rss_mb": statistics.median(u.peak_rss_mb for u in usages),
            **checks[0].errors}


def per_layer(before: Output, traced: Output, after: Output, check: Check,
              cli: bool) -> tuple[dict, list[str]]:
    plain = statistics.median([before.usage.wall_s, after.usage.wall_s])
    print(f"# run wall_s {before.usage.wall_s:.3f} untraced, {traced.usage.wall_s:.3f} traced, "
          f"{after.usage.wall_s:.3f} untraced")
    try:
        recorded = json.loads(traced.spans.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        check.fail(f"traced run wrote no spans: {exc}")
        recorded = {"metrics": {}, "absent": []}
    wall = traced.usage.wall_s
    metrics = dict(recorded["metrics"])
    metrics["reference_path.share"] = metrics.pop("reference_path_s", 0.0) / wall
    metrics["cli.output_bytes"] = 0 if not cli else sum(
        p.stat().st_size for p in traced.path.parent.iterdir() if p.suffix in (".csv", ".meta"))
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - plain
    return metrics, recorded["absent"]


def _report(name: str, seed: int, metrics: dict, units: dict, checks: list[Check],
            gates: list[str], absent: list[str], workload) -> dict:
    attempted = sum(c.attempted for c in checks)
    failed_cells = sum(c.failed for c in checks)
    failed = attempted if gates else 0
    print(f"# workload {name}  seed {seed}  runs {len(checks)}")
    print(f"# inputs {json.dumps(vars(workload), default=str)}")
    print(f"# env {json.dumps(environment())}")
    for key in units:
        print(f"# {key:<42} {metrics.get(key, 0)!r:>24} {units[key]}"
              + ("  (absent)" if any(key.startswith(a + ".") for a in absent) else ""))
    print(f"# {'failed_frac':<42} {failed / attempted!r:>24} ratio"
          f"  ({failed_cells} of {attempted} cells or calls failed)")
    for note, value in checks[0].notes.items():
        print(f"# {note} {value!r}")
    for gate in gates:
        print(f"# GATE FAILED: {gate}")
    return {"correct": not gates, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()}}


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name](seed)
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run = Run(workload, work, deadline)
        try:
            if trace:
                # untraced on both sides, so a slower first or last run
                # does not pass for tracing overhead
                outputs = [run.once(trace=False), run.once(trace=True), run.once(trace=False)]
                setup = []
            else:
                outputs, setup = measure(run, seconds)
        except RunAborted as exc:
            return _report(name, seed, {}, PER_LAYER if trace else END_TO_END,
                           [Check(attempted=1)], [str(exc)], [], workload)
        # solved after the timed runs, so the harness's own work cannot slow them
        exact = workload.converged()
        checks = [o.check(workload, exact) for o in outputs]
        absent: list[str] = []
        if trace:
            metrics, absent = per_layer(*outputs, checks[1], run.spec is None)
        else:
            metrics = end_to_end(outputs, setup, checks)
        units = PER_LAYER if trace else END_TO_END
        return _report(name, seed, metrics, units, checks, _gate(checks), absent, workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "capmimo" / "__init__.py").is_file():
        print(f"error: no capmimo package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: bench(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except NotConvergedError as exc:
        print(f"error: the converged reference is not converged: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
