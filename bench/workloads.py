"""The benchmark's workloads: pinned CLI configs plus seeded oracle calls.

Each workload is a list of requests that a single client sends one after
another (a closed loop).  ``run_pass`` sends them once and returns the raw
outputs; ``verify`` checks those outputs afterwards, outside the timed
region.  The seed is the only source of variation: it draws the oracle
batches and probes, so one seed always yields the same inputs and the
same outputs.  Every seed costs the same: the CLI configs are pinned and
every oracle call takes a pinned number of RK4 steps.

A pass is kept near one second so that a run holds dozens of passes,
each timed between two runs of the benchmark's reference kernel.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: decay: acceptance config C05, n = 3, on its slope-fit window only: the
#: five times from 100 to 1e4 that the fit needs (C05 samples 28 from 50
#: to 1.2e4, a 3 s pass; this one is about 0.8 s)
DECAY_CONFIG = """\
gamma = 2.0
n = 3
data.u0 = zero
data.u1 = gaussian:1.0,1.0
t.min = 100
t.max = 1e4
t.points = 5
"""

#: relaxation: C11 (gamma = 2) and C12 (gamma = 6), each with inconsistent
#: (v2 = 0) and consistent second data; tau from 1e-1 to 1e-3, 7 values
RELAX_CONFIG = """\
gamma = {gamma}
n = 3
data.u0 = gaussian:1.0,1.0
data.u1 = gaussian:1.0,1.0
data.v2 = {v2}
tau.max = 1e-1
tau.min = 1e-3
tau.points = 7
"""

#: oracle batches: batches per kind, modes per batch, drawn as
#: oracle-check draws them (gamma in (1, 10], r in [0.01, 20] second-order
#: and [0.01, 10] relaxed, tau in [0.3, 0.9)), and RK4 steps per batch.  oracle-check itself is
#: not sent: its step follows the stiffest mode drawn, so one call takes
#: 3 to 7 s even at 2 modes and its cost moves with the seed.
BATCHES_PER_KIND = 3
BATCH_MODES = 50
BATCH_STEPS = 1000
#: the step meets the stability bound of the stiffest mode and keeps the
#: RK4 error bound of every root, N (h |mu|)^5 / 120, below this.  (The
#: oracle-check rule bounds only oscillating roots, as the real ones decay
#: over its horizon; over one of 1,000 steps they do not.)
BATCH_ACCURACY = 1e-8
#: RK4 steps per probe; pinning steps (not the horizon) keeps the cost of a
#: probe independent of the drawn gamma.  At the default step this is a
#: horizon of tens to a few hundred time units.
PROBE_STEPS = 3000
#: probes per pass: every discriminant-zero radius of the drawn gammas,
#: cut to this count so every seed does the same amount of work
PROBE_COUNT = 6
PROBE_OUTPUTS = 41
#: max |oracle - closed form| / max |closed form| over the horizon, for
#: probes and batch modes alike; the same tolerance the oracle-check
#: command pins for non-degenerate modes
PROBE_TOL = 1e-6
#: probe gammas are drawn from (GAMMA_MIN, 10].  As gamma -> 1 the smallest
#: coalescence radius shrinks toward r = 0, where every nearby radius is
#: flagged too and the closed-form reference is lost (gamma = 1 + 1e-12
#: has none within 10% of r ~ 1e-6), so the check needs a margin from 1.
GAMMA_MIN = 1.01


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


@dataclass
class CliRequest:
    command: str
    config: Path
    out: Path
    expected_checks: tuple[str, ...]
    reference_body: bytes | None = None

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(self.out)]


@dataclass
class Probe:
    """One mode sent to the RK4 oracle at a root-coalescence radius."""

    gamma: float
    r: float
    times: np.ndarray
    u0: complex
    u1: complex
    dr: float               # offset of the two reference radii, r -+ dr
    u_ref: np.ndarray       # mean of the closed-form u and u_t there
    ut_ref: np.ndarray


@dataclass
class Batch:
    """Many non-degenerate modes sent to one batched RK4 call."""

    label: str
    kind: str               # "vdw" (second order) or "mgt" (relaxed)
    gamma: np.ndarray
    tau: np.ndarray         # ones for "vdw"
    r: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    v2: np.ndarray
    times: np.ndarray
    step: float
    u_ref: np.ndarray       # closed-form u and u_t, (times, modes)
    ut_ref: np.ndarray


@dataclass
class PassOutput:
    cli: list = field(default_factory=list)      # (exit code, stdout text)
    batches: list = field(default_factory=list)  # ModeTrajectory per batch
    probes: list = field(default_factory=list)   # ModeTrajectory per probe
    request_s: dict = field(default_factory=dict)  # seconds per request label
    error: str | None = None


@dataclass
class Workload:
    name: str
    requests: list[CliRequest]
    batches: list[Batch]
    probes: list[Probe]
    vw: object

    @property
    def setup_request(self) -> CliRequest | None:
        return self.requests[0] if self.requests else None

    def run_pass(self) -> PassOutput:
        """Send every request once, in order (timed by the caller).

        Functions are looked up on their modules at call time, so a traced
        pass goes through the tracer's wrappers.
        """
        out = PassOutput()
        vw = self.vw
        try:
            for req in self.requests:
                buf = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    rc = vw.cli.run_command(req.argv())
                out.request_s[req.config.stem] = time.perf_counter() - start
                out.cli.append((rc, buf.getvalue()))
            oracle = vw.oracle
            for b in self.batches:
                start = time.perf_counter()
                if b.kind == "vdw":
                    traj = oracle.integrate_vdw_many(b.gamma, b.r, b.times,
                                                     b.u0, b.u1, b.step)
                else:
                    traj = oracle.integrate_mgt_many(b.gamma, b.tau, b.r, b.times,
                                                     b.u0, b.u1, b.v2, b.step)
                out.request_s[b.label] = time.perf_counter() - start
                out.batches.append(traj)
            for i, p in enumerate(self.probes):
                start = time.perf_counter()
                out.probes.append(oracle.integrate_vdw_mode(
                    vw.params.ModelParams(p.gamma), p.r, t_eval=p.times,
                    u0hat=p.u0, u1hat=p.u1))
                out.request_s[f"probe{i}"] = time.perf_counter() - start
        except Exception as exc:  # a failed pass is recorded, not fatal
            out.error = f"{type(exc).__name__}: {exc}"
        return out

    def verify(self, out: PassOutput) -> list[Check]:
        checks = []
        if out.error is not None:
            checks.append(Check("pass.completed", False, out.error))
        for req, (rc, text) in zip(self.requests, out.cli):
            checks.append(Check(f"{req.command}.exit_code", rc == 0, f"rc={rc}"))
            checks.extend(_cli_checks(req, text))
            body = csv_body(req.out)
            if req.reference_body is None:
                req.reference_body = body
            checks.append(Check(
                f"{req.command}.csv_identical", body == req.reference_body,
                "CSV body equal to the run's first pass (timestamp line aside)"))
        for b, traj in zip(self.batches, out.batches):
            gap = max(max(_rel_gap(traj.u[:, i], b.u_ref[:, i]),
                          _rel_gap(traj.ut[:, i], b.ut_ref[:, i]))
                      for i in range(b.r.size))
            checks.append(Check(
                f"{b.label}.closed_form", bool(gap <= PROBE_TOL),
                f"{b.r.size} modes, {b.times.size} times to t={b.times[-1]:.4g}: "
                f"worst gap={gap:.3e} (<= {PROBE_TOL})"))
        for p, traj in zip(self.probes, out.probes):
            gap = max(_rel_gap(traj.u, p.u_ref), _rel_gap(traj.ut, p.ut_ref))
            checks.append(Check(
                "probe.closed_form", bool(gap <= PROBE_TOL),
                f"gamma={p.gamma:.6f} r={p.r:.9f} vs mean closed form at "
                f"r -+ {p.dr:.3e}: gap={gap:.3e} (<= {PROBE_TOL})"))
        missing = (len(self.requests) + len(self.batches) + len(self.probes)
                   - len(out.cli) - len(out.batches) - len(out.probes))
        if missing:
            checks.append(Check("pass.all_requests", False, f"{missing} not run"))
        return checks


def csv_body(path: Path) -> bytes | None:
    try:
        data = path.read_bytes()
    except OSError:
        return None
    return b"\n".join(ln for ln in data.split(b"\n")
                      if not ln.startswith(b"# timestamp="))


def _cli_checks(req: CliRequest, text: str) -> list[Check]:
    """One check per PASS/FAIL line; a missing expected line fails too."""
    seen = []
    checks = []
    for line in text.splitlines():
        name, sep, rest = line.partition(": ")
        status = line.rsplit(" ", 1)[-1]
        if sep and status in ("PASS", "FAIL"):
            seen.append(name)
            checks.append(Check(name, status == "PASS", rest))
    for name in req.expected_checks:
        if seen.count(name) != 1:
            checks.append(Check(name, False, f"printed {seen.count(name)} times"))
    return checks


def _rel_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

NAMES = ("decay", "oracle", "relaxation")


def build(name: str, seed: int, workdir: Path, vw) -> Workload:
    """Write the configs into ``workdir`` and draw the seeded inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    workdir.mkdir(parents=True, exist_ok=True)

    def request(command, label, text, expected):
        cfg = workdir / f"{label}.cfg"
        cfg.write_text(text, encoding="utf-8")
        return CliRequest(command, cfg, workdir / f"{label}.csv", expected)

    if name == "decay":
        reqs = [request("decay", "decay", DECAY_CONFIG,
                        ("decay.u_slope", "decay.ut_slope"))]
        return Workload(name, reqs, [], [], vw)
    if name == "relaxation":
        reqs = []
        for command, gamma, expected in (
                ("singular-limit-energy", 2.0,
                 ("sl_energy.slope", "sl_energy.initial_value")),
                ("singular-limit-solution", 6.0, ("sl_solution.slope",))):
            for v2 in ("zero", "consistent"):
                reqs.append(request(command, f"{command}-{v2}",
                                    RELAX_CONFIG.format(gamma=gamma, v2=v2),
                                    expected))
        return Workload(name, reqs, [], [], vw)
    batches = [draw_batch(seed, kind, i, vw) for kind in ("vdw", "mgt")
               for i in range(BATCHES_PER_KIND)]
    return Workload(name, [], batches, draw_probes(seed, vw), vw)


def draw_batch(seed: int, kind: str, index: int, vw) -> Batch:
    """A seeded batch of non-degenerate modes and its closed-form reference.

    The step meets the stability bound of the stiffest mode and the
    accuracy rule at a horizon of ``BATCH_STEPS`` steps, so every seed
    costs ``BATCH_STEPS`` steps.
    """
    rng = np.random.default_rng([seed, 2, kind == "mgt", index])
    ModelParams = vw.params.ModelParams
    r_max = 20.0 if kind == "vdw" else 10.0
    modes = []
    while len(modes) < BATCH_MODES:
        gamma = rng.uniform(1.0 + 1e-3, 10.0)
        tau = rng.uniform(0.3, 0.9) if kind == "mgt" else None
        r = rng.uniform(0.01, r_max)
        params = ModelParams(gamma, tau)
        solve = (vw.spectrum.cubic_char_roots_batch if tau is None
                 else vw.spectrum.quartic_char_roots_batch)
        roots, _, _, flags = solve(params, np.array([r]))
        if not flags[0]:
            modes.append((params, r, roots[0]))
    gamma = np.array([m[0].gamma for m in modes])
    tau = np.array([m[0].tau or 1.0 for m in modes])
    r = np.array([m[1] for m in modes])
    roots = np.concatenate([m[2] for m in modes])
    u0, u1, v2 = (rng.standard_normal(BATCH_MODES)
                  + 1j * rng.standard_normal(BATCH_MODES) for _ in range(3))
    oracle = vw.oracle
    stiffness = max(oracle.stiffness_scale(p, x) for p, x, _ in modes)
    step = min(oracle.DEFAULT_STEP_MAX, oracle.DEFAULT_STEP_FACTOR / stiffness)
    step = min(step, (120.0 * BATCH_ACCURACY / BATCH_STEPS) ** 0.2
               / np.abs(roots).max())
    times = np.linspace(0.0, BATCH_STEPS * step, PROBE_OUTPUTS)
    refs = [vw.kernels.vdw_mode_solution(p, x, times, u0[i], u1[i]) if kind == "vdw"
            else vw.kernels.mgt_mode_solution(p, x, times, u0[i], u1[i], v2[i])
            for i, (p, x, _) in enumerate(modes)]
    return Batch(f"{kind}_batch{index}", kind, gamma, tau, r, u0, u1, v2, times, step,
                 np.stack([ref.u for ref in refs], axis=1),
                 np.stack([ref.ut for ref in refs], axis=1))


def draw_probes(seed: int, vw) -> list[Probe]:
    """Probes at every discriminant-zero radius of seed-drawn gammas.

    Those radii are where the roots coalesce, i.e. the nodes the kernel
    path flags and hands to the oracle.  The reference is the mean of the
    closed forms at the nearest radii either side that are not flagged.
    """
    rng = np.random.default_rng([seed, 1])
    ModelParams = vw.params.ModelParams
    probes = []
    while len(probes) < PROBE_COUNT:
        gamma = 10.0 - rng.uniform(0.0, 10.0 - GAMMA_MIN)
        params = ModelParams(gamma)
        for r in vw.spectrum.discriminant_zero_radii(params):
            if len(probes) == PROBE_COUNT:
                break
            r = float(r)
            u0, u1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            step = vw.oracle.default_step(params, r)
            times = np.linspace(0.0, PROBE_STEPS * step, PROBE_OUTPUTS)
            dr = _unflagged_offset(vw, params, r)
            refs = [vw.kernels.vdw_mode_solution(params, r + sign * dr, times, u0, u1)
                    for sign in (-1.0, 1.0)]
            probes.append(Probe(gamma, r, times, complex(u0), complex(u1), dr,
                                0.5 * (refs[0].u + refs[1].u),
                                0.5 * (refs[0].ut + refs[1].ut)))
    return probes


def _unflagged_offset(vw, params, r: float) -> float:
    """The least offset ``dr`` with neither ``r - dr`` nor ``r + dr`` flagged.

    The mode solution is analytic in r (only the roots have a square-root
    branch point there), so the mean of the closed forms at ``r -+ dr``
    differs from the solution at ``r`` by O(dr^2), not O(dr).
    """
    for exp in range(-12, 0):
        dr = r * 10.0 ** exp
        radii = np.array([r - dr, r + dr])
        if not vw.spectrum.cubic_char_roots_batch(params, radii)[3].any():
            return dr
    raise RuntimeError(f"no unflagged radii around r={r} (gamma={params.gamma})")
