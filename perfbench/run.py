#!/usr/bin/env python3
"""liftphase benchmark: closed-loop workloads and a per-module traced run.

Run from a checkout of the repository; the package is imported from its
``src/`` directory, so nothing needs installing:

    python3 perfbench/run.py --workload series-ladder --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1  # tiny grid

Workloads.  Each is a closed loop with one caller: the next operation starts
when the previous one has finished.

* ``paper-quadrature`` (not in BENCHMARK.json; run it by name or with
  ``all``): ``liftphase experiment paper-1`` and ``paper-2`` on the default
  quadrature route, three times each, each in a fresh CLI process.  This is
  what a user reproducing the paper runs; adaptive quadrature takes most of
  it.
  Its figures are not gated: on a 2-core VM whose speed drifts by about
  20% over minutes, ten runs of both presets twice each spread by 0.2 to
  0.25 of their median (quartile distance), as wide as the largest bound a
  gated metric may have.
* ``series-ladder``: fresh CLI runs with ``--method series`` at delta 7:
  paper-1 and paper-2 on the paper grid (N=61, K=11), three times each, and
  the modulated signal at (N=101, K=15) with shift spacing 1/30 from a
  ``--config`` file.
  Measurement is cheap, so the dense lifted matrix, its cold SVD and the
  refinement dominate; problem size is the traffic dimension.
* ``recover-batch``: one process on the paper grid with a warm system cache
  (see ``batch_worker.py``).  Refinement and synchronization dominate;
  measurement and lifting cost about nothing per operation.

A pass runs every operation of the workload once (for ``recover-batch``, one
epoch over its inputs).  Passes repeat while the next one is expected to end
within ``--seconds``, with at least one.  The seed fixes the order of the
CLI operations in a pass and the noise draws of ``recover-batch``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass with every configuration once
(``recover-batch``: alternating epochs) and
prints the per-layer metrics from the traced pass; the difference between
the two is reported as ``trace.overhead_s``.

Every operation is checked: a nonzero exit, an aligned error above the
bound stated for its configuration, or artifacts that differ from an
earlier run of the same configuration and source tree mark it failed.
Artifact digests persist in ``.perfbench-work/digests.json`` so repeats
across runs are compared too.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``record ...``) holds the seed, the machine, the thread
environment and every operation.  Without a liftphase package under
``src/`` the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYERS, Totals, per_layer_metrics, subtree  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Runs by name or with ``all`` but is not in BENCHMARK.json (see above).
UNGATED = ["paper-quadrature"]

RUN_LIMIT_S = 170.0
#: Set-up is timed several times per run and reported as a median; a
#: recover-batch set-up includes the cold factorization, so it repeats less.
CLI_SETUP_REPEATS = 5
BATCH_SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ARTIFACTS = ("measurement.json", "spectrum.json", "reconstruction.csv",
             "metrics.json")
#: Acceptance criteria 1 (paper-1, gaussian) and 2 (paper-2, modulated).
PAPER_BOUND = {"gaussian": 5e-3, "modulated": 5e-2}
#: The (101, 15) ladder point measured 2.1e-6.
LADDER_BOUND = 1e-3
#: The tiny smoke grid cannot resolve the modulated signal (error 0.53).
SMOKE_BOUND = {"gaussian": 5e-2, "modulated": 1.0}
LADDER_CONFIG = {"grid": {"preset": "custom", "n_frequencies": 101,
                          "n_shifts": 15, "shift_spacing": 1.0 / 30.0,
                          "delta": 7}}
#: A timed pass runs each paper-grid configuration this often, so that a
#: run measures more than one process per configuration and artifacts repeat
#: within it.  The traced run runs every configuration once.
PAPER_GRID_REPEATS = 3
SMOKE_CONFIG = {"method": "series",
                "grid": {"preset": "custom", "n_frequencies": 21, "n_shifts": 7,
                         "shift_spacing": 0.5 / 7.0, "delta": 3}}


@dataclass(frozen=True)
class CliOp:
    name: str
    args: tuple
    signal: str
    bound: float
    config: dict | None = None


def cli_ops(workload: str, smoke: bool, repeats: int) -> list[CliOp]:
    if workload == "paper-quadrature":
        ops = [CliOp("paper-1", ("experiment", "paper-1"), "gaussian",
                     PAPER_BOUND["gaussian"]),
               CliOp("paper-2", ("experiment", "paper-2"), "modulated",
                     PAPER_BOUND["modulated"])] * repeats
    else:
        series = ("--method", "series")
        ops = [CliOp("paper-1-series", ("experiment", "paper-1") + series,
                     "gaussian", PAPER_BOUND["gaussian"]),
               CliOp("paper-2-series", ("experiment", "paper-2") + series,
                     "modulated", PAPER_BOUND["modulated"])] * repeats
        ops.append(CliOp("modulated-101x15", ("experiment", "paper-2") + series,
                         "modulated", LADDER_BOUND, LADDER_CONFIG))
    if smoke:
        ops = [CliOp(op.name, op.args, op.signal, SMOKE_BOUND[op.signal],
                     SMOKE_CONFIG) for op in ops]
    return ops


# ----------------------------------------------------------------- children

@dataclass
class ChildResult:
    code: int
    wall_s: float
    rss_mb: float
    output: str
    line_times: list


def run_child(argv, env, timeout) -> ChildResult:
    """Run a child to completion with stdout+stderr on a pipe; time it from
    spawn to reap and read its peak RSS.  The child is killed at the timeout."""
    line_times = []
    lines = []
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                            text=True)
    timer = threading.Timer(max(timeout, 0.1), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            line_times.append(time.perf_counter() - spawned)
            lines.append(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, time.perf_counter() - spawned,
                       usage.ru_maxrss / 1024.0, "".join(lines), line_times)


class Context:
    def __init__(self, workload, seed, seconds, trace, smoke):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.started = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0))
        self.thread_env = {var: str(self.nproc) for var in THREAD_VARS}
        self.env = dict(os.environ, **self.thread_env)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.digests = DigestStore(WORK / "digests.json")

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)


class DigestStore:
    """Artifact digests keyed by source tree, configuration and grid size, so
    repeats of one configuration are compared within and across runs."""

    def __init__(self, path: Path):
        self.path = path
        self.tree = hashlib.sha256()
        for file in sorted(SRC.rglob("*.py")):
            self.tree.update(str(file.relative_to(SRC)).encode())
            self.tree.update(file.read_bytes())
        self.tree = self.tree.hexdigest()[:16]
        try:
            self.known = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.known = {}

    def matches(self, config_key: str, digest: str) -> bool:
        key = f"{self.tree}/{config_key}"
        return self.known.setdefault(key, digest) == digest

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True),
                       encoding="utf-8")
        os.replace(tmp, self.path)


# ------------------------------------------------------------------ set-up

def machine_record(ctx) -> dict:
    """Untimed warm-up probe (also fills the bytecode cache) that returns
    the machine record; exits the benchmark if liftphase cannot start."""
    result = run_child([sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
                        "--machine"], ctx.env, ctx.remaining())
    if result.code != 0:
        sys.stderr.write(result.output)
        print(f"perfbench: liftphase did not start (exit {result.code})",
              file=sys.stderr)
        raise SystemExit(3)
    return json.loads(result.output.strip().splitlines()[-1])


def probe_setup(ctx) -> float:
    """Fresh interpreter + ``import liftphase`` + window construction."""
    result = run_child([sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
                       ctx.env, ctx.remaining())
    if result.code != 0 or not result.line_times:
        sys.stderr.write(result.output)
        print("perfbench: set-up probe failed", file=sys.stderr)
        raise SystemExit(3)
    return result.line_times[0]


# ------------------------------------------------------------ CLI workloads

def artifact_digest(out_dir: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for name in ARTIFACTS:
        data = (out_dir / name).read_bytes()
        digest.update(name.encode() + b"\0" + data)
        size += len(data)
    return digest.hexdigest(), size


def check_cli(op, ctx, result, out_dir) -> tuple[str | None, float | None, int]:
    """(failure reason or None, aligned error, artifact bytes)."""
    if result.code != 0:
        tail = result.output.strip().splitlines()[-1:] or [""]
        return f"exit {result.code}: {tail[0][:200]}", None, 0
    missing = [name for name in ARTIFACTS if not (out_dir / name).is_file()]
    if missing:
        return f"missing artifacts {missing}", None, 0
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    error = metrics.get("aligned_relative_error")
    digest, size = artifact_digest(out_dir)
    if not isinstance(error, float) or not error <= op.bound:
        return f"aligned error {error!r} above {op.bound:.0e}", error, size
    key = f"{op.name}/{'smoke' if ctx.smoke else 'full'}"
    if not ctx.digests.matches(key, digest):
        return "artifacts differ from an earlier run of this configuration", \
            error, size
    return None, error, size


def run_cli_pass(ctx, ops, traced) -> dict:
    results = []
    start = time.perf_counter()
    for op in ops:
        index = len(list(ctx.work.glob("op-*")))
        out_dir = ctx.work / f"op-{index:03d}-{op.name}"
        out_dir.mkdir(parents=True)
        args = list(op.args)
        if op.config is not None:
            config = ctx.work / f"{op.name}.config.json"
            config.write_text(json.dumps(op.config), encoding="utf-8")
            args += ["--config", str(config)]
        args += ["--out", str(out_dir / "artifacts")]
        spans_path = out_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
                    "--", *args]
        else:
            argv = [sys.executable, "-m", "liftphase.cli", *args]
        result = run_child(argv, ctx.env, ctx.remaining())
        reason, error, size = check_cli(op, ctx, result, out_dir / "artifacts")
        entry = {"op": op.name, "traced": traced, "wall_s": result.wall_s,
                 "rss_mb": result.rss_mb, "error": error, "ok": reason is None,
                 "reason": reason, "artifact_bytes": size}
        if traced and spans_path.is_file():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            entry["spans"] = doc["spans"]
        elif traced and entry["ok"]:
            entry.update(ok=False, reason="traced run wrote no spans")
        results.append(entry)
    return {"wall_s": time.perf_counter() - start, "ops": results}


def cli_workload(ctx) -> dict:
    ops = cli_ops(ctx.workload, ctx.smoke,
                  1 if ctx.trace else PAPER_GRID_REPEATS)
    random.Random(ctx.seed).shuffle(ops)
    setup = [probe_setup(ctx) for _ in range(CLI_SETUP_REPEATS)]
    passes = []
    if ctx.trace:
        passes.append(run_cli_pass(ctx, ops, traced=False))
        passes.append(run_cli_pass(ctx, ops, traced=True))
    else:
        while True:
            passes.append(run_cli_pass(ctx, ops, traced=False))
            elapsed = time.perf_counter() - ctx.started
            mean = statistics.fmean(p["wall_s"] for p in passes)
            if elapsed + mean > ctx.seconds or 1.5 * mean > ctx.remaining():
                break
    return {"order": [op.name for op in ops], "setup_s": setup,
            "passes": passes}


def layer_split(ops) -> list[dict]:
    """Self time by layer for each traced CLI operation."""
    split = []
    for op in ops:
        if "spans" in op:
            totals = Totals()
            totals.add(op["spans"])
            split.append({"op": op["op"], "wall_s": op["wall_s"],
                          **{layer: totals.layer_self(layer) for layer in LAYERS}})
    return split


def cli_per_layer(run) -> dict:
    untraced, traced = run["passes"]
    totals = Totals()
    for entry in traced["ops"]:
        totals.add(entry.get("spans", []))
    metrics = per_layer_metrics(
        totals, passes=1,
        artifact_bytes=sum(e["artifact_bytes"] for e in traced["ops"]))
    traced_wall = sum(e["wall_s"] for e in traced["ops"])
    untraced_wall = sum(e["wall_s"] for e in untraced["ops"])
    attributed = sum(totals.self_time.values())
    metrics.update(trace_metrics(traced_wall, untraced_wall, attributed))
    return metrics


# ------------------------------------------------------------ recover-batch

def batch_workload(ctx) -> dict:
    base = [sys.executable, str(BENCH / "batch_worker.py"), "--seed",
            str(ctx.seed), "--seconds", str(ctx.seconds)]
    if ctx.smoke:
        base.append("--smoke")
    setup = []
    for _ in range(BATCH_SETUP_REPEATS - 1):
        result = run_child(base + ["--setup-only"], ctx.env, ctx.remaining())
        if result.code != 0 or not result.line_times:
            sys.stderr.write(result.output)
            print("perfbench: recover-batch set-up failed", file=sys.stderr)
            raise SystemExit(3)
        setup.append(result.line_times[0])
    spans_path = ctx.work / "batch-spans.json"
    argv = base + (["--spans", str(spans_path)] if ctx.trace else [])
    result = run_child(argv, ctx.env, ctx.remaining())
    events = {}
    for line in result.output.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            events[doc["event"]] = doc
    if "ready" not in events:
        sys.stderr.write(result.output)
        print("perfbench: recover-batch set-up failed", file=sys.stderr)
        raise SystemExit(3)
    setup.append(result.line_times[0])
    done = events.get("done", {"epochs": [], "ops": []})
    ops = done["ops"]
    if result.code != 0 or not ops:
        ops = ops + [{"level": None, "traced": False, "wall_s": result.wall_s,
                      "error": None, "ok": False,
                      "reason": f"worker exit {result.code}: "
                                f"{result.output.strip()[-200:]}"}]
    run = {"setup_s": setup, "clean_inputs": events["ready"]["clean_inputs"],
           "epochs": done["epochs"], "ops": ops, "peak_rss_mb": result.rss_mb}
    if ctx.trace and spans_path.is_file():
        run["spans"] = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    return run


def batch_per_layer(run) -> dict:
    spans = run.get("spans", [])
    totals, setup = Totals(), Totals()
    totals.add(subtree(spans, "bench.epoch"))
    setup.add(subtree(spans, "bench.setup"))
    traced = [e["wall_s"] for e in run["epochs"] if e["traced"]]
    untraced = [e["wall_s"] for e in run["epochs"] if not e["traced"]]
    passes = max(len(traced), 1)
    metrics = per_layer_metrics(totals, passes=passes, setup=setup)
    metrics.update(trace_metrics(
        statistics.fmean(traced) if traced else 0.0,
        statistics.fmean(untraced) if untraced else 0.0,
        sum(totals.self_time.values()) / passes))
    return metrics


def trace_metrics(traced_wall, untraced_wall, attributed) -> dict:
    """Pass walls, tracing overhead, and the wall time no span covers
    (interpreter start-up and exit of CLI processes)."""
    return {
        "trace.pass_wall_s": (traced_wall, "s"),
        "trace.untraced_pass_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.unattributed_s": (traced_wall - attributed, "s"),
    }


# ----------------------------------------------------------------- metrics

def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it; the maximum when there are 10 or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(ctx, run) -> tuple[dict, dict]:
    """(metrics, notes) from the untraced operations of a run.  ``wall_s`` is
    the median wall time of a pass: a recover-batch epoch's cost depends
    mostly on how many power iterations its gaussian draw at 1e-3 needs (one
    such recovery took 0.23 s, another 2.2 s), and over ten seeds the mean of
    a run's epochs spread twice as widely as their median."""
    if ctx.workload == "recover-batch":
        ops = run["ops"]
        walls = [e["wall_s"] for e in run["epochs"] if not e["traced"]] or [
            sum(op["wall_s"] for op in ops)]
        clean = [op["error"] for op in ops if op.get("level") == 0.0
                 and op["error"] is not None]
        noisy = [op["error"] for op in ops if (op.get("level") or 0.0) > 0.0
                 and op["error"] is not None]
        rss = run["peak_rss_mb"]
    else:
        ops = [op for p in run["passes"] for op in p["ops"]]
        walls = [p["wall_s"] for p in run["passes"]]
        clean = [op["error"] for op in ops if op["error"] is not None]
        noisy = []
        rss = max(op["rss_mb"] for op in ops)
    op_walls = [op["wall_s"] for op in ops if not op["traced"]]
    tail_value, tail_pct, beyond = tail(op_walls)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(op_walls), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "aligned_error_max": (max(clean, default=0.0), "1"),
    }
    notes = {"op_tail": {"percentile": tail_pct, "samples": len(op_walls),
                         "beyond": beyond},
             "passes": len(walls),
             "noisy_aligned_error_max": max(noisy) if noisy else None}
    return metrics, notes


def run_workload(ctx, machine) -> dict:
    ctx.work.mkdir(parents=True, exist_ok=True)
    try:
        if ctx.workload == "recover-batch":
            run = batch_workload(ctx)
            ops = run["ops"]
        else:
            run = cli_workload(ctx)
            ops = [op for p in run["passes"] for op in p["ops"]]
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        ctx.digests.save()
    failed = [op for op in ops if not op["ok"]]
    metrics, notes = end_to_end(ctx, run)
    notes["failed_fraction"] = len(failed) / len(ops)
    if ctx.trace:
        metrics = (batch_per_layer(run) if ctx.workload == "recover-batch"
                   else cli_per_layer(run))
        notes["layer_self_by_operation"] = layer_split(ops)
    record = {
        "workload": ctx.workload, "seed": ctx.seed, "seconds": ctx.seconds,
        "trace": ctx.trace, "smoke": ctx.smoke, "machine": machine,
        "thread_env": ctx.thread_env, "source_tree": ctx.digests.tree,
        "setup_s": run["setup_s"], **notes,
        "order": run.get("order"),
        "operations": [{k: v for k, v in op.items() if k != "spans"}
                       for op in ops],
    }
    return {"metrics": metrics, "attempted": len(ops), "failed": len(failed),
            "failures": [op["reason"] for op in failed], "record": record}


def report(ctx, outcome) -> None:
    notes = outcome["record"]
    print(f"== {ctx.workload}  seed={ctx.seed}  seconds={ctx.seconds:g}  "
          f"trace={ctx.trace}{'  smoke' if ctx.smoke else ''}")
    print(f"   operations {outcome['attempted']} attempted, {outcome['failed']} "
          f"failed (failed_fraction {notes['failed_fraction']:g})")
    for reason in outcome["failures"]:
        print(f"   FAILED: {reason}")
    for name, (value, unit) in outcome["metrics"].items():
        extra = ""
        if name == "op_tail_s":
            t = notes["op_tail"]
            extra = (f"   (p{t['percentile']:.1f} of {t['samples']} samples, "
                     f"{t['beyond']} beyond)")
        print(f"   {name:<38} {value:>14.6g} {unit}{extra}")
    if ctx.trace:
        m = outcome["metrics"]
        attributed = m["trace.pass_wall_s"][0] - m["trace.unattributed_s"][0]
        print(f"   traced pass: layer self-times {attributed:.4f} s + unattributed "
              f"{m['trace.unattributed_s'][0]:.4f} s (interpreter start and exit) "
              f"= {m['trace.pass_wall_s'][0]:.4f} s; tracing overhead "
              f"{m['trace.overhead_s'][0]:+.4f} s against the untraced pass")
    for split in notes.get("layer_self_by_operation", []):
        layers = sorted(LAYERS, key=lambda layer: -split[layer])[:4]
        print(f"   {split['op']:<18} wall {split['wall_s']:.3f} s, self time: "
              + ", ".join(f"{layer} {split[layer]:.3f} s" for layer in layers))
    if notes.get("noisy_aligned_error_max") is not None:
        print(f"   noisy aligned error max (not gated)    "
              f"{notes['noisy_aligned_error_max']:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNGATED + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid (N=21, K=7, delta=3, series route)")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "liftphase" / "__init__.py").is_file():
        print(f"perfbench: no liftphase package under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS + UNGATED if args.workload == "all" else [args.workload]
    outcomes = {}
    machine = None
    for workload in workloads:
        ctx = Context(workload, args.seed, args.seconds, args.trace, args.smoke)
        machine = machine or machine_record(ctx)
        outcomes[workload] = outcome = run_workload(ctx, machine)
        report(ctx, outcome)
        print("record " + json.dumps(outcome["record"]))
    if len(workloads) == 1:
        metrics = outcome["metrics"]
    else:
        metrics = {f"{w}/{name}": value for w, o in outcomes.items()
                   for name, value in o["metrics"].items()}
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
