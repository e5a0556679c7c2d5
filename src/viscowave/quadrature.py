"""Radial Plancherel quadrature and the piecewise decay-rate functions.

With the unitary Fourier convention, Sobolev-weighted norms reduce to
one-dimensional radial integrals

    || |D|^s f ||_{L2}^2 = omega_n * int_0^inf r^(2s+n-1) |f_hat(r)|^2 dr,

with ``omega_n = 2 pi^(n/2) / Gamma(n/2)`` the unit-sphere area.  The
integrator below subdivides panels adaptively with the embedded
Gauss-Kronrod pair G10-K21 (QUADPACK ``qk21``): each panel costs its 21
Kronrod nodes once, the 10-point Gauss rule reuses ten of them, K21 is the
value and |K21 - G10| the error estimate.  An oscillatory integrand takes
cap segments (lo, hi, width) that bound its initial panel widths, since over
many periods K21 and G10 can alias together to the same wrong answer and
stop the refinement early.  The one cap rule of the radial norms, of the
solutions and of the kernel envelopes alike, is :func:`oscillation_caps`:
one period of cos^2(gt r t) below eps_cut, one of cos(gt r t) above it, and
no cap past the radius where exp(-2c r^2 t) has died.

Four constants hold for every integral: ``REL_TOL`` = 1e-9, the tolerance
relative to the whole integral; ``MAX_DEPTH`` = 30 halvings, after which a
panel is accepted as it stands (and the integral refused if such panels
leave more than ``REL_TOL``); ``MAX_PANELS`` = 60000, the panel budget of
one integral, whose initial panels are counted before they are built; and
``LOCKSTEP_NODES`` = 8192, the most nodes of one integrand call.

An integrand may return a (k, P) stack of k components sampled on the
same P nodes, as the u and u_t modes of one time are.  A panel is then
accepted only when every component has converged on it (the vector-valued
rule of Shampine, "Vectorized adaptive quadrature in MATLAB", J. Comput.
Appl. Math. 211, 2008), so the components share one set of nodes, and
each is refined at least as far as it would be on its own.

Many integrals can run in lockstep (:func:`adaptive_integrals`): each
keeps its own panels and checks, and a round's nodes of all of them, in
order, are cut into integrand calls of at most ``LOCKSTEP_NODES`` nodes,
an integral's nodes across consecutive calls where the cut falls inside
them (the vectorised rounds of Shampine, above).  The integrand then pays
its fixed cost per call, such as a root solve, once for many integrals,
its working set stays within the budget at any node count, and each
integral still sees the values a call of its own would give, because the
integrand is pointwise in the node.  One adaptive integral is the case of
one problem.

The smooth frequency cut-offs of the underlying estimates are replaced by
sharp cuts at the zone boundaries; every rate is insensitive to that
choice, and the three zones then partition the radial domain exactly.  A
norm over all zones is one adaptive pass whose initial panels have edges at
the cuts (the break points of QUADPACK ``qagp``), so no panel straddles a
zone boundary and the tolerance holds relative to the whole norm.

The large zone r >= n_cut is unbounded.  It is mapped onto the finite
interval (n_cut, n_cut + 1] by the rational substitution of QUADPACK
``qagi`` (Piessens et al., 1983), r = n_cut / (n_cut + 1 - y), with
Jacobian n_cut / (n_cut + 1 - y)^2 = r / (n_cut + 1 - y), while y = r below
n_cut.  Every norm is then one pass over a finite variable with no
truncation radius, so it cannot miss mass that lies far out; the Kronrod
nodes are interior, so r = infinity is never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidParameterError, TruncationError
from .params import ModelParams
from .spectrum import DEFAULT_EPS_CUT, DEFAULT_N_CUT

# QUADPACK qk21 (Piessens et al., 1983): the Kronrod abscissae in [0, 1]
# from the outside in, their K21 weights, and the G10 weights of the
# Gauss abscissae among them, which are the odd entries 1, 3, ..., 9
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525573593, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

# the 21 nodes on [-1, 1] in increasing order, with both weight sets; G10
# weighs the odd-indexed nodes and gives the Kronrod-only ones weight 0
_KR_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KR_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G10_W = np.zeros(21)
_G10_W[1::2] = np.concatenate([_WG, _WG[::-1]])

SPECTRUM_KINDS = ("gaussian", "gaussian_diff", "linear_gaussian", "tabulated")
#: tolerance of every adaptive integral, relative to its whole value
REL_TOL = 1e-9
#: halvings of an initial panel after which it is accepted as it stands
MAX_DEPTH = 30
#: panel budget of one adaptive integral, its initial panels included
MAX_PANELS = 60000
#: most nodes of one integrand call of adaptive_integrals; a round with more
#: nodes, of one problem or of many, is cut into several calls
LOCKSTEP_NODES = 8192


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# ---------------------------------------------------------------------------
# data spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataSpectrum:
    """Radial Fourier spectrum of an initial datum.

    ``moment`` is the spectrum value at the origin; under the unitary
    transform the physical moment (spatial integral) of the datum is
    ``(2 pi)^(n/2)`` times this value, see :meth:`physical_moment`.
    """

    kind: str
    params: tuple
    moment: float = field(init=False)

    def __post_init__(self):
        if self.kind not in SPECTRUM_KINDS:
            raise InvalidParameterError(f"unknown spectrum kind {self.kind!r}")
        # a NaN passes every `<= 0` check of the factories
        if not all(np.all(np.isfinite(p)) for p in self.params):
            raise InvalidParameterError(
                f"{self.kind} spectrum parameters must be finite, got {self.params!r}")
        object.__setattr__(self, "moment", float(np.real(self(0.0))))

    @classmethod
    def gaussian(cls, amplitude: float = 1.0, width: float = 1.0) -> "DataSpectrum":
        if width <= 0:
            raise InvalidParameterError("gaussian width must be positive")
        return cls("gaussian", (float(amplitude), float(width)))

    @classmethod
    def gaussian_diff(cls, amplitude: float = 1.0, width_a: float = 1.0,
                      width_b: float = 2.0) -> "DataSpectrum":
        """Difference of two unit-height gaussians: vanishing moment."""
        if width_a <= 0 or width_b <= 0:
            raise InvalidParameterError("gaussian widths must be positive")
        return cls("gaussian_diff", (float(amplitude), float(width_a), float(width_b)))

    @classmethod
    def linear_gaussian(cls, amplitude: float = 1.0, width: float = 1.0) -> "DataSpectrum":
        """Spectrum vanishing linearly at the origin: r * exp(-w r^2)."""
        if width <= 0:
            raise InvalidParameterError("gaussian width must be positive")
        return cls("linear_gaussian", (float(amplitude), float(width)))

    @classmethod
    def tabulated(cls, r_nodes, values) -> "DataSpectrum":
        r_nodes = tuple(float(x) for x in r_nodes)
        values = tuple(float(x) for x in values)
        if len(r_nodes) != len(values) or len(r_nodes) < 2:
            raise InvalidParameterError("tabulated spectrum needs matching nodes/values")
        if any(b <= a for a, b in zip(r_nodes, r_nodes[1:])):
            raise InvalidParameterError("tabulated nodes must increase strictly")
        return cls("tabulated", (r_nodes, values))

    @classmethod
    def zero(cls) -> "DataSpectrum":
        return cls.gaussian(0.0, 1.0)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            amp, w = self.params
            return amp * np.exp(-w * r * r)
        if self.kind == "gaussian_diff":
            amp, wa, wb = self.params
            return amp * (np.exp(-wa * r * r) - np.exp(-wb * r * r))
        if self.kind == "linear_gaussian":
            amp, w = self.params
            return amp * r * np.exp(-w * r * r)
        nodes, values = self.params
        return np.interp(r, nodes, values, left=values[0], right=0.0)

    @property
    def is_zero(self) -> bool:
        if self.kind == "tabulated":
            return all(v == 0.0 for v in self.params[1])
        return self.params[0] == 0.0

    def physical_moment(self, n: int) -> float:
        """Spatial integral of the datum: (2 pi)^(n/2) * spectrum(0)."""
        return (2.0 * math.pi) ** (n / 2.0) * self.moment

    def tail_radius(self) -> float:
        """Radius R = sqrt(18 / w) + 1 past which the spectrum is negligible,
        w the smallest gaussian width; a tabulated spectrum is 0 past its
        last node, which is R.

        There the gaussian factor exp(-2 w r^2) of the squared spectrum is
        exp(-36 - 4 sqrt(18 w) - 2 w): 1.3e-24 at width 1, 4e-17 at width
        0.01, and never above exp(-36) = 2.3e-16.  Only the singular-limit
        sums use it, as the end of their panels; the adaptive norms map the
        large zone onto a finite variable instead.
        """
        if self.kind == "tabulated":
            return self.params[0][-1]
        widths = self.params[1:]
        return math.sqrt(36.0 / (2.0 * min(widths))) + 1.0


# ---------------------------------------------------------------------------
# adaptive panel integration
# ---------------------------------------------------------------------------

def _initial_edges(a: float, b: float, cap_segments) -> np.ndarray:
    edges = {a, b}
    for lo, hi, width in cap_segments or ():
        lo, hi = max(a, lo), min(b, hi)
        if hi <= lo or width <= 0:
            continue
        # a segment past the budget is cut to one panel more than it, which
        # _panel_rounds refuses before any node is built
        count = math.ceil(min((hi - lo) / width, MAX_PANELS + 1))
        edges.update(np.linspace(lo, hi, count + 1).tolist())
    return np.array(sorted(edges))


def panel_rule(edges):
    """The G10-K21 rule on the panels between consecutive ``edges``.

    Returns the 21 Kronrod nodes of every panel, in increasing order, with
    their K21 weights and their G10 weights (0 on the Kronrod-only nodes):
    three (21 P,) arrays for P panels.  A sum against either weight set is
    that composite rule over [edges[0], edges[-1]], and the difference of
    the two sums is the K21 - G10 error estimate of the whole integral
    (the nodes and weights of :func:`adaptive_integral`, without its
    local acceptance).
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)[:, None]
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * _KR_X
    return nodes.ravel(), (half * _KR_W).ravel(), (half * _G10_W).ravel()


def _unbox(x):
    """A Python float for a scalar result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _panel_rounds(a: float, b: float, cap_segments):
    """The adaptive panel loop of one integral, as a generator.

    Each round yields the 21 Kronrod nodes of every open panel as one 1-d
    array and receives the integrand's values there, P values or a (k, P)
    stack; it returns (value, error_estimate) unboxed as in
    :func:`adaptive_integral`.
    """
    edges = _initial_edges(a, b, cap_segments)
    lefts = edges[:-1]
    rights = edges[1:]
    depths = np.zeros(lefts.shape, dtype=int)

    accepted_left: list[np.ndarray] = []
    accepted_val: list[np.ndarray] = []
    accepted_err: list[np.ndarray] = []
    total_ref = 0.0
    capped_err = 0.0
    span = b - a
    n_panels = lefts.size
    while lefts.size:
        if n_panels > MAX_PANELS:
            raise TruncationError(
                f"adaptive quadrature exceeded {MAX_PANELS} panels")
        mids = 0.5 * (lefts + rights)
        half = 0.5 * (rights - lefts)
        nodes = mids[:, None] + half[:, None] * _KR_X
        vals = np.asarray((yield nodes.ravel()), dtype=float)
        if not np.isfinite(vals).all():
            bad = ~np.isfinite(vals).reshape(-1, nodes.size).all(axis=0)
            raise TruncationError(
                f"integrand returned non-finite values at {bad.sum()} of "
                f"{bad.size} nodes, the lowest {nodes.ravel()[bad].min():.6g}")
        vals = vals.reshape(vals.shape[:-1] + nodes.shape)
        kronrod = (vals * _KR_W).sum(axis=-1) * half
        err = np.abs(kronrod - (vals * _G10_W).sum(axis=-1) * half)
        p = lefts.size
        total_ref = np.maximum(total_ref, np.abs(kronrod).sum(axis=-1))
        frac = (rights - lefts) / span
        tol_local = REL_TOL * np.maximum(
            np.abs(kronrod), np.multiply.outer(total_ref, frac)) + 1e-300
        ok = err <= tol_local
        done = ok.reshape(-1, p).all(axis=0) | (depths >= MAX_DEPTH)
        capped_err = capped_err + np.where(done & ~ok, err, 0.0).sum(axis=-1)
        accepted_left.append(lefts[done])
        accepted_val.append(kronrod[..., done])
        accepted_err.append(err[..., done])
        split = ~done
        lefts = np.concatenate([lefts[split], mids[split]])
        rights = np.concatenate([mids[split], rights[split]])
        depths = np.concatenate([depths[split] + 1, depths[split] + 1])
        n_panels += int(split.sum())

    order = np.argsort(np.concatenate(accepted_left), kind="stable")
    value = np.concatenate(accepted_val, axis=-1)[..., order].sum(axis=-1)
    err_total = np.concatenate(accepted_err, axis=-1)[..., order].sum(axis=-1)
    for capped, v in zip(np.ravel(capped_err), np.ravel(value)):
        if capped > REL_TOL * abs(v):
            raise TruncationError(
                f"panels at max_depth={MAX_DEPTH} left error {capped:.2e} "
                f"on a value of {v:.2e}")
    return _unbox(value), _unbox(err_total)


def adaptive_integrals(f, bounds, *, cap_segments=None, names=None) -> list:
    """K adaptive integrals in lockstep, sharing the integrand's calls.

    Problem k integrates over ``bounds[k] = (a, b)`` with the panel caps
    ``cap_segments[k]`` (None: no caps), and keeps its own panels, depth
    checks and tolerance reference: it is the panel loop of
    :func:`adaptive_integral`, which is the one-problem case.  Each round,
    the Kronrod nodes of the problems still open are joined in problem
    order and sliced every ``LOCKSTEP_NODES`` nodes, one call
    ``f(ks, nodes)`` per slice, so a problem's nodes may be split across
    consecutive calls; ``ks`` lists the distinct problem indices of a slice
    and ``nodes`` their 1-d node arrays in it (a problem's whole round or a
    contiguous piece of it), and ``f`` returns one value array per entry,
    as :func:`adaptive_integral`'s integrand would for those nodes.  A
    problem's pieces are joined along the last axis before its panel loop
    sees them.  ``f`` must be pointwise in the node, a value not depending
    on which other nodes share its call; every problem then sees the values
    a separate call would see, and returns its (value, error_estimate) bit
    for bit.

    A :class:`TruncationError` of problem k is prefixed ``names[k]`` when
    ``names`` is given; a :class:`DomainError` rejects a pair of bounds
    unless ``a < b`` are finite.
    """
    for a, b in bounds:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"integration bounds must be finite, got [{a}, {b}]")
        if not b > a:
            raise DomainError(f"empty integration range [{a}, {b}]")
    caps = cap_segments or [None] * len(bounds)
    problems = [_panel_rounds(a, b, cap) for (a, b), cap in zip(bounds, caps)]
    results = [None] * len(problems)
    nodes = {}

    def advance(k, vals):
        try:
            nodes[k] = problems[k].send(vals)
        except StopIteration as stop:
            nodes.pop(k, None)
            results[k] = stop.value
        except TruncationError as exc:
            if names is None:
                raise
            raise TruncationError(f"{names[k]}: {exc}") from None

    for k in range(len(problems)):
        advance(k, None)
    while nodes:
        # np.unique sorts the owners of a slice: the keys of nodes increase,
        # so that keeps each slice's problems, and pieces, in node order
        ks = list(nodes)
        joined = np.concatenate(list(nodes.values()))
        owner = np.repeat(ks, [x.size for x in nodes.values()])
        pieces = {k: [] for k in ks}
        for start in range(0, joined.size, LOCKSTEP_NODES):
            part = slice(start, start + LOCKSTEP_NODES)
            call, first = np.unique(owner[part], return_index=True)
            call = call.tolist()
            for k, vals in zip(call, f(call, np.split(joined[part], first[1:]))):
                pieces[k].append(vals)
        for k in ks:
            advance(k, np.concatenate(pieces[k], axis=-1))
    return results


def adaptive_integral(f, a: float, b: float, *, cap_segments=None):
    """Globally adaptive panel quadrature of a vectorised integrand.

    ``f`` maps P nodes to P values, or to a (k, P) stack of k components.
    Returns (value, error_estimate) with the integrand's leading shape:
    floats for a 1-d integrand, (k,) arrays for a stack.  Each round
    evaluates the 21 Kronrod nodes of every open panel in calls of ``f`` of
    at most ``LOCKSTEP_NODES`` nodes each, so ``f`` must be pointwise in the
    node (see :func:`adaptive_integrals`); a panel is accepted once, for
    every component, its K21 value and the G10 value on the same nodes
    agree within ``REL_TOL`` (locally), and otherwise it is halved.
    Accepted K21 contributions are sorted by position and summed with
    numpy's pairwise ``sum``, so the value does not depend on the order of
    acceptance.  The error estimate sums |K21 - G10| over the panels: it
    bounds the error of the G10 values and is pessimistic for the K21
    value returned.  This is the one-problem case of
    :func:`adaptive_integrals`.

    ``cap_segments`` is an iterable of (lo, hi, width) triples bounding
    the initial panel width on oscillatory subintervals.  Raises
    :class:`DomainError` unless ``a < b`` are finite, and
    :class:`TruncationError` as soon as ``f`` returns a non-finite value,
    past ``MAX_PANELS`` panels (the initial ones are counted before they
    are built), or when the panels accepted only at ``MAX_DEPTH`` halvings
    leave some component an error above ``REL_TOL`` times its own value.
    """
    return adaptive_integrals(lambda ks, nodes: [f(nodes[0])], [(a, b)],
                              cap_segments=[cap_segments])[0]


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

def _radial_problem(n: int, s: float, zone_filter, eps_cut: float, n_cut: float):
    """Check the arguments of a radial norm; returns its interval in y and
    the power of r that weighs |f|^2."""
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    if s < 0:
        raise DomainError(f"Sobolev order must be >= 0, got {s}")
    # an empty small zone would read 0, and the map needs a finite n_cut
    if not 0 < eps_cut < n_cut < math.inf:
        raise DomainError(
            f"need 0 < eps_cut < n_cut < inf, got eps_cut={eps_cut}, n_cut={n_cut}")
    zones = {"small": (0.0, eps_cut), "bounded": (eps_cut, n_cut),
             "large": (n_cut, n_cut + 1.0), "all": (0.0, n_cut + 1.0)}
    if zone_filter not in zones:
        raise DomainError(f"unknown zone filter {zone_filter!r}")
    return zones[zone_filter], 2.0 * s + n - 1.0


def oscillation_caps(params: ModelParams, t: float, eps_cut: float, n_cut: float) -> list:
    """Panel-width caps, in r, for the low-frequency oscillation at time t:
    the one cap rule of the solution norms and the kernel-envelope norms.

    Below ``eps_cut`` the modes and the kernel envelopes oscillate like
    cos(gt r t) under exp(-c r^2 t) (gt = ``gamma_tilde``, c =
    ``parabolic_decay``), so their squares have the period pi / (gt t);
    the caps there are that wide, or ``eps_cut`` if that is narrower.
    From ``eps_cut`` the caps are one period 2 pi / (gt t) of the
    oscillation itself.  Past the "alive" radius, where exp(-2c r^2 t) has
    fallen to exp(-50), about 2e-22, the amplitudes are negligible and
    aliasing cannot contribute, so the small-zone caps stop at 1.3 times
    that radius and the others at it (a dead panel and its halves all
    evaluate to ~0); they stop at ``n_cut`` too, above which the norms
    integrate in the mapped variable.  A time below 1 takes the caps of
    t = 1.
    """
    omega = params.gamma_tilde * max(t, 1.0)
    alive = math.sqrt(50.0 / (2.0 * params.parabolic_decay * max(t, 1.0)))
    caps = [(0.0, min(eps_cut, 1.3 * alive), math.pi / max(omega, math.pi / eps_cut))]
    if alive > eps_cut:
        caps.append((eps_cut, min(alive, n_cut), 2.0 * math.pi / omega))
    return caps


def _zone_caps(cap_segments, eps_cut: float, n_cut: float) -> list:
    """The caller's caps plus the zone cuts as initial panel edges; a cut
    outside the integration interval is dropped."""
    return [*(cap_segments or ()), (eps_cut, n_cut, n_cut - eps_cut)]


def _mapped_field(field, n_cut: float, exponent: float):
    """The lockstep integrand on y of a lockstep ``field(ks, radii)`` on r:
    y = r up to ``n_cut``, the ``qagi`` map above it, and each problem's
    values turned into |f|^2 r^exponent times the Jacobian."""
    def integrand(ks, ys):
        radii, jacobians = [], []
        for y in ys:
            mapped = y > n_cut
            gap = n_cut + 1.0 - y
            r = np.where(mapped, n_cut / gap, y)
            radii.append(r)
            jacobians.append(np.where(mapped, r / gap, 1.0))
        return [np.abs(np.asarray(vals)) ** 2 * r ** exponent * jacobian
                for vals, r, jacobian in zip(field(ks, radii), radii, jacobians)]
    return integrand


def _radial_norm(total, err, n: int, full_output: bool):
    norm = np.sqrt(sphere_area(n) * total)
    if full_output:
        half_rel = 0.5 * err / np.maximum(total, 1e-300)
        return _unbox(norm), _unbox(norm * half_rel)
    return _unbox(norm)


def l2_norm_radial(spectrum, n: int, s: float = 0.0, zone_filter: str = "all", *,
                   eps_cut: float = DEFAULT_EPS_CUT, n_cut: float = DEFAULT_N_CUT,
                   cap_segments=None, full_output: bool = False):
    """Sobolev-weighted radial L2 norm of a spectrum.

    The integral runs over y in [0, n_cut + 1]: y = r up to ``n_cut``, and
    the large zone is mapped by the ``qagi`` substitution
    r = n_cut / (n_cut + 1 - y) (see the module docstring).  It is one
    adaptive pass, the one-norm case of :func:`l2_norms_radial`, which
    runs many such norms in lockstep.

    Parameters
    ----------
    spectrum:
        Vectorised callable r -> complex values (a :class:`DataSpectrum`
        works directly), or r -> a (k, P) stack of k spectra on the same
        nodes.  A stack gets one norm per component, from one adaptive
        pass whose panels are accepted only when every component has
        converged; ``full_output`` holds per component.
    n, s:
        Space dimension (positive integer) and Sobolev order (s >= 0).
    zone_filter:
        One of "all"/"small"/"bounded"/"large"; sharp cuts at the zone
        boundaries ``eps_cut`` and ``n_cut``, which must satisfy
        0 < eps_cut < n_cut < inf.  Every zone takes one adaptive pass,
        and the cuts inside it are initial panel edges, so the zone norms
        add up in squares to the "all" norm to the quadrature tolerance
        ``REL_TOL``, which holds relative to the integral over the chosen
        zone (the squared norm), also when that spans several zones.
    cap_segments:
        (lo, hi, width) panel-width caps of :func:`adaptive_integral`, in
        r; they must lie below ``n_cut``, where y = r.
    full_output:
        Also return an error estimate of the norm, propagated from the
        summed |K21 - G10| of :func:`adaptive_integral`; like that one it
        bounds the G10 estimate and is pessimistic for the value returned.

    Raises
    ------
    DomainError
        On a bad dimension, order, zone filter or pair of cuts.
    TruncationError
        If the quadrature fails (see :func:`adaptive_integral`), as it
        does for a spectrum that does not decay fast enough for a finite
        norm: the mapped integrand then grows without bound towards
        y = n_cut + 1, and the panels there hit the depth cap or the
        panel budget.
    """
    return l2_norms_radial(lambda ks, radii: [spectrum(radii[0])], [cap_segments], n, s,
                           zone_filter, eps_cut=eps_cut, n_cut=n_cut,
                           full_output=full_output)[0]


def l2_norms_radial(field, cap_segments, n: int, s: float = 0.0, zone_filter: str = "all",
                    *, eps_cut: float = DEFAULT_EPS_CUT, n_cut: float = DEFAULT_N_CUT,
                    full_output: bool = False, names=None) -> list:
    """K :func:`l2_norm_radial` norms over one zone, in lockstep.

    Norm k has the panel caps ``cap_segments[k]``; ``n``, ``s``, the zone,
    the cuts and ``full_output`` are shared, as in
    :func:`l2_norm_radial`, which is the case of one norm.  ``field(ks,
    radii)`` returns, for each problem index in ``ks``, the spectrum values
    on its radii (a round's radii of that norm, or a piece of them), as
    that norm's ``spectrum`` would, pointwise in r; one call serves the
    open panels of many norms (see :func:`adaptive_integrals`, which also
    describes ``names``).  Norm k equals :func:`l2_norm_radial` of its own
    spectrum bit for bit.
    """
    (lo, hi), exponent = _radial_problem(n, s, zone_filter, eps_cut, n_cut)
    results = adaptive_integrals(
        _mapped_field(field, n_cut, exponent), [(lo, hi)] * len(cap_segments),
        cap_segments=[_zone_caps(c, eps_cut, n_cut) for c in cap_segments],
        names=names)
    return [_radial_norm(total, err, n, full_output) for total, err in results]


# ---------------------------------------------------------------------------
# weighted kernel norms
# ---------------------------------------------------------------------------

def kernel_norm(t: float, s: float, n: int, part: str, params: ModelParams, *,
                eps_cut: float = DEFAULT_EPS_CUT) -> float:
    """Low-frequency weighted norm of the oscillatory kernel envelopes: the
    :func:`l2_norm_radial` of an envelope spectrum over the small zone.

    ``part="cos_part"`` takes the envelope cos(gt r t) e^(-c r^2 t) and
    ``part="sin_part"`` the companion sin(gt r t)/r e^(-c r^2 t), whose norm
    carries the weight r^(s-1) on sin.  For t > 0 the sin envelope is
    gt t sinc(gt t r / pi) e^(-c r^2 t), continuous at r = 0, so its norm is
    finite for every s >= 0, n >= 1, which covers all four branches of the
    piecewise rate function G; a t that is not finite and > 0 is rejected.
    The panels take the caps of :func:`oscillation_caps`, as the solution
    norms' do.
    """
    if part not in ("cos_part", "sin_part"):
        raise DomainError(f"part must be cos_part or sin_part, got {part!r}")
    if not 0 < t < math.inf:                # NaN fails too
        raise DomainError(
            "kernel norms require a finite t > 0 (at t = 0 the sin weight "
            "r^(s-1) has a non-integrable envelope for 2s + n <= 2)")
    if not eps_cut > 0:         # before oscillation_caps divides by it
        raise DomainError(f"eps_cut must be > 0, got {eps_cut}")
    phase = params.gamma_tilde * t
    decay = params.parabolic_decay * t

    def envelope(r):
        wave = np.cos(phase * r) if part == "cos_part" \
            else phase * np.sinc(phase * r / math.pi)
        return wave * np.exp(-decay * r * r)

    return l2_norm_radial(envelope, n, s, "small", eps_cut=eps_cut,
                          cap_segments=oscillation_caps(params, t, eps_cut, DEFAULT_N_CUT))


# ---------------------------------------------------------------------------
# piecewise rate functions
# ---------------------------------------------------------------------------

_CASE_TOL = 1e-12


def g_exponent(s: float, n: int) -> float | None:
    """Power of (1 + t) in G(t; s, n), or None on the q = 2s + n = 2
    branch, where G = (ln(e + t))^(1/2)."""
    q = 2.0 * s + n
    if q < 2.0 - _CASE_TOL:
        return 1.0 - s - n / 2.0
    if abs(q - 2.0) <= _CASE_TOL:
        return None
    if q < 3.0 - _CASE_TOL:
        return 1.0 - 5.0 * s / 6.0 - 5.0 * n / 12.0
    return 0.5 - s / 2.0 - n / 4.0


def rate_function(kind: str, t, s: float | None = None, n: int = 1):
    """The piecewise time-dependent coefficients G, H and kappa.

    G(t; s, n) bounds the sin-kernel norm (four branches switching at
    2s + n = 2, 3); H(t; n) is the sharp two-sided rate of the solution
    norm; kappa_n(t) weights the relaxed-model energy bound.  H(t; 2) =
    sqrt(log t) is a large-time rate and raises DomainError for t <= 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("rate functions require t > 0")
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    if kind == "G":
        if s is None or s < 0:
            raise DomainError("G needs a Sobolev order s >= 0")
        p = g_exponent(s, n)
        out = np.sqrt(np.log(math.e + t)) if p is None else (1.0 + t) ** p
    elif kind == "H":
        if n == 1:
            out = np.sqrt(t)
        elif n == 2:
            if np.any(t <= 1):
                raise DomainError("H(t; n=2) = sqrt(log t) requires t > 1")
            out = np.sqrt(np.log(t))
        else:
            out = t ** (0.5 - n / 4.0)
    elif kind == "kappa":
        if n == 1:
            out = np.sqrt(1.0 + t)
        elif n == 2:
            out = np.log(math.e + t)
        else:
            out = np.ones_like(t)
    else:
        raise DomainError(f"unknown rate function kind {kind!r}")
    return out if out.ndim else float(out)
