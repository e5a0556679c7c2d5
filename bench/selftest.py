"""Self-test of the benchmark (not of viscowave).

Run from the root of a checkout::

    python3 bench/selftest.py [WORKLOAD ...]

For each workload (all three by default) it sends one untraced pass,
two traced passes and one traced pass on a single worker, then checks:

- every output check passes, which includes the traced CSV bodies being
  byte-identical to the untraced ones apart from the ``# timestamp=`` line;
- the counters repeat exactly across the traced passes, the one-worker
  pass included;
- on one worker the span self times add up to the traced wall, and the
  layers (everything but the benchmark's own glue) account for >= 99% of
  it; with more workers they add up to at least the wall.

It also checks the self-time arithmetic on hand-made spans, the tail
percentile rule, and that ``run.py`` fails without a result in a copy of
the benchmark that has no ``src`` beside it.  Exit code 0 means all held.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

import run

COUNTERS = ("spectrum.calls", "spectrum.rows_cubic", "spectrum.rows_quartic",
            "spectrum.flagged_rows", "spectrum.distinct_ratio",
            "quadrature.norms", "quadrature.integrals", "quadrature.nodes",
            "kernels.calls", "kernels.table_cells", "oracle.calls",
            "oracle.mode_steps", "oracle.fallback_calls", "experiments.tasks",
            "cli.csv_bytes")
SEED = 20240808


class Report:
    def __init__(self):
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)


def check_self_time_rule(expect, tracing) -> None:
    """Two children on two threads overlapping in [1, 3] inside [0, 4]."""
    tr = tracing.Tracer()
    S = tracing.Span
    tr.spans = [S(1, None, "experiments", "root", 1, 0.0, 4.0),
                S(2, 1, "spectrum", "a", 2, 1.0, 3.0),
                S(3, 1, "spectrum", "b", 3, 2.0, 3.0),
                S(4, 2, "kernels", "c", 2, 1.5, 2.0)]
    own = tr.self_times()
    expect(own == {1: 2.0, 2: 1.5, 3: 1.0, 4: 0.5},
           f"self time = duration - union of children: {own}")


def check_tail_rule(expect) -> None:
    expect(run.tail([4.0, 1.0, 2.0, 3.0]) == (3.25, "p75 (interpolated) of 4"),
           "tail of <= 10 samples is the interpolated upper quartile")
    value, label = run.tail([float(i) for i in range(50)])
    expect(value == 39.0 and label == "p80.0 of 50",
           f"tail of 50 samples leaves ten beyond it ({value}, {label})")
    expect(run.tail([float(i) for i in range(20)])[0] == 14.25,
           "tail of 11 to 39 samples is still the upper quartile")


def check_workload(expect, name: str, vw, workloads, tracing) -> None:
    wl = workloads.build(name, SEED, run.WORKDIR / f"selftest-{name}", vw)
    runner = run.Runner(wl, seconds=0)
    runner.timed_pass()
    counters, walls, tracers = [], [], []
    for workers in (None, None, "1"):
        if workers:
            os.environ["VISCOWAVE_THREADS"] = workers
        try:
            tracer = tracing.Tracer()
            walls.append(runner.timed_pass(tracer, vw)[0])
        finally:
            os.environ.pop("VISCOWAVE_THREADS", None)
        tracers.append(tracer)
        counters.append(tracing.pass_metrics(tracer))
    bad = [c for c in runner.checks if not c.passed]
    expect(not bad, f"{name}: {len(runner.checks)} output checks pass, traced "
           f"CSVs byte-identical to untraced {[c.name for c in bad]}")
    diff = [k for k in COUNTERS
            if not counters[0][k] == counters[1][k] == counters[2][k]]
    expect(not diff, f"{name}: counters repeat across the traced passes, "
           f"one worker included {diff}")
    for tracer, wall, label in ((tracers[2], walls[2], "1 worker"),
                                (tracers[0], walls[0], "default workers")):
        busy = tracer.layer_self()
        total = sum(busy.values())
        root = next(s for s in tracer.spans if s.name == "bench.pass")
        span_wall = root.end - root.start
        layers = total - busy["bench"]
        if label == "1 worker":
            ok = abs(total - span_wall) <= 1e-6 * span_wall \
                and layers >= 0.99 * span_wall
        else:
            ok = total >= span_wall * (1 - 1e-6)
        expect(ok, f"{name} ({label}): self times {total:.4f} s, layers "
               f"{layers:.4f} s, traced wall {span_wall:.4f} s")


def check_bare_copy(expect) -> None:
    """run.py must fail, without a result line, when no src is present."""
    bare = run.WORKDIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "decay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    expect(proc.returncode != 0 and not last.startswith("{"),
           f"bare copy exits {proc.returncode} in "
           f"{time.perf_counter() - start:.2f} s without a result")
    shutil.rmtree(bare, ignore_errors=True)


def main(argv) -> int:
    run.pin_environment()
    vw = run.import_program()
    import tracing
    import workloads
    report = Report()
    check_self_time_rule(report.expect, tracing)
    check_tail_rule(report.expect)
    check_bare_copy(report.expect)
    for name in argv or workloads.NAMES:
        check_workload(report.expect, name, vw, workloads, tracing)
    print(f"{len(report.failures)} failure(s)")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
