"""viscowave benchmark: one client, closed loop, pinned configs.

Run from the root of a checkout::

    python3 bench/run.py --workload decay --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
on one ``thread_map`` worker.  The gated time is relative: each pass's
wall time over that of a fixed single-threaded reference kernel timed
right before and after it, median over the run.  On a shared host whose
speed swings by up to twofold for seconds to minutes at a time, wall
seconds measure the neighbours; their median and tail are printed as
``#`` lines.
``--trace 1`` measures the per-layer metrics with ``VISCOWAVE_THREADS``
unset: it cycles an untraced pass, a traced pass and a one-worker pass,
so that tracing overhead and thread speed-up come from the same run.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe
the run environment and the samples.

The package is imported from ``src/`` of the checkout this file lives in,
with BLAS threads pinned to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKDIR = ROOT / ".bench_run"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MODULES = ("params", "spectrum", "kernels", "oracle", "quadrature",
           "experiments", "cli")
#: cold-start samples per end-to-end run; setup_s is their median
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
#: reference kernel: classical RK4 steps of a fixed linear 3-component
#: system over this many modes, numpy calls on small arrays as in
#: viscowave's oracle and root-solve loops (about 5 to 10 ms)
REF_MODES = 50
REF_STEPS = 100


def pin_environment() -> None:
    """Must run before numpy is imported: BLAS threads would otherwise
    stack on thread_map's workers."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("VISCOWAVE_THREADS", None)


def import_program():
    """Import viscowave from this checkout's ``src`` or fail loudly."""
    src = ROOT / "src"
    if not (src / "viscowave" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no viscowave package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("viscowave")
    if Path(package.__file__).resolve().parent != (src / "viscowave").resolve():
        raise SystemExit(f"benchmark: imported viscowave from {package.__file__}, "
                         f"not from {src}")
    return types.SimpleNamespace(
        package=package,
        **{m: importlib.import_module(f"viscowave.{m}") for m in MODULES})


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(vw) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "VISCOWAVE_THREADS": os.environ.get("VISCOWAVE_THREADS", "unset"),
        "thread_map_workers": int(os.environ.get("VISCOWAVE_THREADS")
                                  or os.cpu_count() or 1),
        "viscowave": vw.package.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "platform": platform.platform(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "viscowave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, str]:
    """The higher of the upper quartile and the highest percentile with at
    least ten samples beyond it.

    A run of 40 passes or more reports the pass with exactly ten slower
    ones.  Shorter runs report the upper quartile (inclusive interpolation):
    below 11 passes no percentile has ten beyond it, and from 11 to 39 that
    percentile lies below p75 (p9 at 11 passes), so the tail would jump as
    the pass count crosses 11.  The label says which statistic it is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 40:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"
    if n == 1:
        return ordered[0], "only pass"
    return statistics.quantiles(ordered, n=4, method="inclusive")[2], \
        f"p75 (interpolated) of {n}"


def setup_time(req) -> float:
    """Cold interpreter to the first call: spawn, import, and for a CLI
    request parse the config and build ExperimentConfig / FrequencyGrid."""
    args = [] if req is None else [req.command, str(req.config)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (rc={proc.returncode}): {line!r}")
    return elapsed


def reference_s() -> float:
    """Wall seconds of one reference-kernel run; reads the host's speed."""
    import numpy as np
    rates = np.linspace(0.1, 2.0, REF_MODES)
    y = np.full((3, REF_MODES), 0.1 + 0.1j)
    h = 1e-3

    def rhs(y):
        u, ut, z = y
        return np.stack([ut, -rates * (u + ut - z), u - 2.0 * z])

    start = time.perf_counter()
    for _ in range(REF_STEPS):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return time.perf_counter() - start


class Runner:
    def __init__(self, workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.checks = []

    def another(self, begin: float, done: int) -> bool:
        """Start another pass (or triple) only if it should end within
        ``--seconds``, judged by the mean so far; always run at least one."""
        elapsed = time.perf_counter() - begin
        return done == 0 or elapsed + elapsed / done <= self.seconds

    def timed_pass(self, tracer=None, vw=None):
        """One pass, verified afterwards; returns (wall seconds, output)."""
        import tracing
        wl = self.workload
        start = time.perf_counter()
        if tracer is None:
            out = wl.run_pass()
        else:
            with tracing.traced(tracer, vw):
                token = tracer.open()
                try:
                    out = wl.run_pass()
                finally:
                    tracer.close(token, "bench", "bench.pass")
        wall = time.perf_counter() - start
        for check in wl.verify(out):
            self.checks.append(check)
            if not check.passed:
                print(f"FAIL {check.name}: {check.detail}", file=sys.stderr)
        return wall, out

    def end_to_end(self) -> dict:
        setup = [setup_time(self.workload.setup_request)
                 for _ in range(SETUP_SAMPLES)]
        walls, request_s = [], {}
        refs = [reference_s()]
        begin = time.perf_counter()
        while self.another(begin, len(walls)):
            wall, out = self.timed_pass()
            walls.append(wall)
            refs.append(reference_s())
            for label, seconds in out.request_s.items():
                request_s.setdefault(label, []).append(seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rel = [w / (0.5 * (a + b)) for w, a, b in zip(walls, refs, refs[1:])]
        tail_value, tail_label = tail(walls)
        print(f"# passes={len(walls)} wall samples (s): "
              + " ".join(f"{w:.4f}" for w in walls))
        print(f"# wall median {statistics.median(walls):.4f} s, "
              f"tail {tail_value:.4f} s ({tail_label} passes)")
        print("# reference kernel samples (ms): "
              + " ".join(f"{1e3 * r:.3f}" for r in refs))
        print("# wall_rel samples: " + " ".join(f"{r:.2f}" for r in rel))
        rel_tail, rel_label = tail(rel)
        print(f"# wall_rel tail {rel_tail:.2f} ref ({rel_label} passes)")
        print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
        for label, seconds in request_s.items():
            print(f"# request {label}: median {statistics.median(seconds):.4f} s, "
                  f"fastest {min(seconds):.4f} s")
        return {
            "wall_rel": statistics.median(rel),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
        }

    def per_layer(self, vw) -> dict:
        import tracing
        plain, traced, single, layers = [], [], [], []
        tracers = []
        begin = time.perf_counter()
        while self.another(begin, len(traced)):
            plain.append(self.timed_pass()[0])
            tracer = tracing.Tracer()
            traced.append(self.timed_pass(tracer, vw)[0])
            tracers.append(tracer)
            layers.append(tracing.pass_metrics(tracer))
            os.environ["VISCOWAVE_THREADS"] = "1"
            try:
                single.append(self.timed_pass()[0])
            finally:
                os.environ.pop("VISCOWAVE_THREADS", None)
        spans_path = WORKDIR / f"spans-{self.workload.name}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for i, tracer in enumerate(tracers):
                tracer.dump(fh, str(i))
        med = statistics.median
        # counters repeat exactly from pass to pass; times take the median
        metrics = {k: (statistics.median_low if isinstance(v, int) else med)(
            [m[k] for m in layers]) for k, v in layers[0].items()}
        metrics["experiments.speedup"] = med(single) / med(plain)
        metrics["trace.overhead_s"] = med(traced) - med(plain)
        self._print_accounting(tracers[0], traced[0])
        print(f"# triples={len(traced)} untraced: "
              + " ".join(f"{w:.4f}" for w in plain)
              + " | traced: " + " ".join(f"{w:.4f}" for w in traced)
              + " | 1 worker: " + " ".join(f"{w:.4f}" for w in single))
        print(f"# spans written to {spans_path.relative_to(ROOT)}")
        return metrics

    @staticmethod
    def _print_accounting(tracer, wall: float) -> None:
        busy = tracer.layer_self()
        total = sum(busy.values())
        print("# self time by layer, first traced pass (s): "
              + " ".join(f"{k}={v:.4f}" for k, v in busy.items())
              + f" | sum={total:.4f} wall={wall:.4f}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    if not args.trace:
        # one worker: the reference kernel is single-threaded, and a pass on
        # two threads speeds up or slows down with the host's second core
        os.environ["VISCOWAVE_THREADS"] = "1"
    vw = import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    run_dir = WORKDIR / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, run_dir, vw)
    runner = Runner(workload, args.seconds)

    env = environment(vw)
    for key, value in env.items():
        print(f"# env {key}: {value}")
    units = declared_units(args.trace)
    values = runner.per_layer(vw) if args.trace else runner.end_to_end()
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(values)}, declared {sorted(units)}")
    metrics = {k: (values[k], units[k]) for k in units}
    failed = sum(not c.passed for c in runner.checks)
    attempted = len(runner.checks)
    print(f"# checks_failed={failed}/{attempted} "
          f"({failed / max(attempted, 1):.4f} of those attempted)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
