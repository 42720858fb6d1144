"""Operator paths, eigenvalue tracking, and Krein-collision taxonomy.

Tracking matches eigenvalues between parameter samples by minimal-total-cost
assignment and bisects the step whenever the cheapest assignment moves an
eigenvalue by more than a fraction of its distance to the nearest other
eigenvalue.  Collisions are detected through changes of the on-circle /
on-axis partition between refined steps; whether eigenvalues actually leave
the circle (axis) decides between the Krein-collision family and
PASS_THROUGH.  Events are located by bisection and reported with a bracket,
not an exact collision time: colliding eigenvalues move like square roots,
so the collision point is estimated from the cluster centroid just before
the collision (quadratically accurate).

A path owns its samples: :meth:`OperatorPath.sample` computes the matrix and
its eigenvalues once per parameter value, and tracking, event bisection and
the cluster-inertia readings all share that sample, since eigenvalue
branches are functions of the parameter alone.  Membership checks read the
same matrix through :meth:`OperatorPath.matrix`.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import config, numerics, spectral
from .cayley import CayleyParams, cayley_op
from .errors import (AmbiguousClassification, KreinLabError, MembershipError,
                     StepUnderflow, UnknownScenario, UnresolvedEvent)
from .krein import KreinStructure, is_j_hermitian, is_j_unitary, make_standard
from .realsym import RealStructure, is_member, make_real_structure
from .signature import InertiaPair, form_inertia

EVENT_KINDS = ("KC", "QKC", "TB", "MTB", "PD", "MPD", "PASS_THROUGH")
TERNARY_STEPS = 40   # each shrinks the pass-through bracket to 2/3


@dataclass
class OperatorPath:
    """A parametrized family of J-unitaries or J-hermitians."""

    sampler: Callable[[float], np.ndarray]
    structure: KreinStructure
    kind: str                      # 'unitary' | 'hermitian'
    real_structure: RealStructure | None = None
    t_start: float = 0.0
    t_end: float = 1.0
    name: str = ""
    expected_events: list = field(default_factory=list)
    _matrices: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __call__(self, t: float) -> np.ndarray:
        return self.sampler(float(t))

    def matrix(self, t: float) -> np.ndarray:
        """The matrix at t, computed once per parameter value."""
        t = float(t)
        a = self._matrices.get(t)
        if a is None:
            a = self._matrices[t] = self(t)
        return a

    def sample(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """``(matrix, eigenvalues)`` at t, computed once per parameter value."""
        t = float(t)
        hit = self._samples.get(t)
        if hit is None:
            a = self.matrix(t)
            hit = self._samples[t] = (a, numerics.eigvals(a))
        return hit

    @property
    def span(self) -> float:
        return self.t_end - self.t_start

    def membership_residual(self, t: float) -> float:
        a = self.matrix(t)
        if self.real_structure is not None:
            return is_member(a, self.real_structure, self.kind).residual
        if self.kind == "unitary":
            return is_j_unitary(a, self.structure).residual
        return is_j_hermitian(a, self.structure).residual

    def verify_membership(self, n_samples: int = 17) -> float:
        """Max membership residual over a uniform sample grid; raises
        :class:`MembershipError` above ``path_membership``."""
        bound = config.DEFAULT.path_membership
        worst = 0.0
        for s in np.linspace(self.t_start, self.t_end, n_samples):
            worst = max(worst, self.membership_residual(s))
        if worst > bound:
            raise MembershipError(
                f"path membership residual {worst:.3e} exceeds {bound:.1e}",
                residual=worst)
        return worst

    def reversed(self) -> "OperatorPath":
        total = self.t_start + self.t_end
        return OperatorPath(sampler=lambda t: self.sampler(total - t),
                            structure=self.structure, kind=self.kind,
                            real_structure=self.real_structure,
                            t_start=self.t_start, t_end=self.t_end,
                            name=self.name + "-reversed")

    @classmethod
    def from_samples(cls, ts, mats, structure, kind, real_structure=None,
                     name=""):
        """Piecewise-linear interpolation of stored samples."""
        ts = np.asarray(ts, dtype=float)
        mats = [numerics.as_matrix(m, square=True) for m in mats]
        if ts.ndim != 1 or len(ts) != len(mats) or len(ts) < 2:
            raise ValueError("need matching lists of at least two samples")
        if not np.all(np.diff(ts) > 0):
            raise ValueError("sample times must be strictly increasing")

        def sampler(t):
            t = float(np.clip(t, ts[0], ts[-1]))
            k = int(np.searchsorted(ts, t, side="right") - 1)
            k = min(max(k, 0), len(ts) - 2)
            w = (t - ts[k]) / (ts[k + 1] - ts[k])
            return (1.0 - w) * mats[k] + w * mats[k + 1]

        return cls(sampler=sampler, structure=structure, kind=kind,
                   real_structure=real_structure, t_start=float(ts[0]),
                   t_end=float(ts[-1]), name=name)


@dataclass
class TrajectorySample:
    t: float
    value: complex
    region: str | None
    nu: InertiaPair | None


@dataclass
class Trajectory:
    track_id: int
    samples: list[TrajectorySample]

    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.samples])

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])


@dataclass
class BifurcationEvent:
    event_kind: str
    t0: float
    bracket: tuple[float, float]
    lambda0: complex
    multiplicity: int
    inertia_before: InertiaPair | None
    inertia_after: InertiaPair | None
    direction: str  # 'departure' | 'arrival' | 'on-region'

    def to_dict(self) -> dict:
        return {
            "event_kind": self.event_kind,
            "t0": self.t0,
            "bracket": list(self.bracket),
            "lambda0": [self.lambda0.real, self.lambda0.imag],
            "multiplicity": self.multiplicity,
            "inertia_before": list(self.inertia_before.as_tuple()) if self.inertia_before else None,
            "inertia_after": list(self.inertia_after.as_tuple()) if self.inertia_after else None,
            "direction": self.direction,
        }


def _region_tag(path: OperatorPath, lam: complex) -> str | None:
    kind = "hermitian" if path.kind == "hermitian" else "unitary"
    try:
        return spectral._region_of(lam, kind, config.DEFAULT.eps_region,
                                   config.DEFAULT.ambiguous_factor)
    except AmbiguousClassification:
        return None


def _regions(path: OperatorPath, t: float):
    """Region tags for all eigenvalues at t; on ambiguity, retries at up to
    four jittered parameter values."""
    span = max(path.span, 1e-12)
    for k in range(5):
        tt = t if k == 0 else t + k * 1e-9 * span
        eigs = path.sample(tt)[1]
        tags = [_region_tag(path, l) for l in eigs]
        if None not in tags:
            return tt, eigs, tags
    eigs = path.sample(t)[1]
    return t, eigs, [_region_tag(path, l) for l in eigs]


def _on_count(path: OperatorPath, t: float) -> int:
    _, _, tags = _regions(path, t)
    return sum(1 for g in tags if g in spectral.ON_REGIONS)


def _cluster_inertia(path: OperatorPath, t: float, members) -> InertiaPair | None:
    """Inertia of the cluster containing the given eigenvalues at t, or
    ``None`` when its projection or restricted form cannot be decided."""
    try:
        a, eigs = path.sample(t)
        p = spectral.riesz_projection(a, members, all_eigs=eigs)
        mult = int(round(np.trace(p).real))
        return form_inertia(numerics.range_frame(p, mult), path.structure)
    except KreinLabError:
        return None


def track(path: OperatorPath, initial_grid: int = 9,
          record_inertia: bool = True) -> list[Trajectory]:
    """Track eigenvalue trajectories along an operator path.

    Eigenvalues are matched between consecutive parameter values by optimal
    assignment; steps are bisected whenever the assignment moves an
    eigenvalue more than ``match_fraction`` of its distance to the nearest
    other eigenvalue, down to the minimal step.  Per-sample Krein inertia is
    recorded for on-circle/on-axis eigenvalues unless ``record_inertia`` is
    switched off (cheaper, used by large random suites).
    """
    if initial_grid < 2:
        raise ValueError("initial_grid must be at least 2")
    span = path.span
    min_step = config.DEFAULT.min_step * max(1.0, abs(span))
    rho = 1.0 + float(np.max(np.abs(path.sample(path.t_start)[1])))

    ts = [float(x) for x in np.linspace(path.t_start, path.t_end, initial_grid)]
    accepted = [ts[0]]
    e0 = path.sample(ts[0])[1]
    idx = np.lexsort((e0.imag, e0.real))
    tracked = [e0[idx]]
    pending = ts[1:]
    while pending:
        t1 = pending[0]
        t0v = accepted[-1]
        prev = tracked[-1]
        cur = path.sample(t1)[1]
        cost = np.abs(prev[:, None] - cur[None, :])
        rows, cols = numerics.optimal_assignment(cost)
        new = cur[cols[np.argsort(rows)]]
        moves = np.abs(new - prev)
        pair = np.abs(prev[:, None] - prev[None, :])
        np.fill_diagonal(pair, np.inf)
        gaps = pair.min(axis=1)
        allowed = np.maximum(config.DEFAULT.match_fraction * gaps, 1e-9 * rho)
        if np.any(moves > allowed) and (t1 - t0v) > min_step:
            pending.insert(0, (t0v + t1) / 2.0)
            continue
        if (t1 - t0v) <= min_step and np.any(moves > 0.25 * rho):
            raise StepUnderflow(
                f"eigenvalue moved {moves.max():.3e} over a minimal step",
                bracket=(t0v, t1))
        accepted.append(t1)
        tracked.append(new)
        pending.pop(0)

    # classify and attach inertia sample by sample
    trajs = [Trajectory(track_id=i, samples=[]) for i in range(len(tracked[0]))]
    for t_k, vals in zip(accepted, tracked):
        tags = [_region_tag(path, l) for l in vals]
        nus: list[InertiaPair | None] = [None] * len(vals)
        if record_inertia:
            on_idx = [i for i, g in enumerate(tags) if g in spectral.ON_REGIONS]
            if on_idx:
                on_vals = np.array([vals[i] for i in on_idx])
                delta = spectral.default_delta(path.sample(t_k)[1])
                for group in spectral.cluster_eigenvalues(on_vals, delta):
                    nu = _cluster_inertia(path, t_k, on_vals[group])
                    for gi in group:
                        nus[on_idx[gi]] = nu
        for i, (lam, tag, nu) in enumerate(zip(vals, tags, nus)):
            trajs[i].samples.append(
                TrajectorySample(t=t_k, value=complex(lam), region=tag, nu=nu))
    return trajs


def _classify_event(path: OperatorPath, lam0: complex, multiplicity: int,
                    sp_tol: float) -> str:
    if path.real_structure is None:
        return "KC"
    if path.kind == "unitary":
        specials = {1.0 + 0.0j: ("TB", "MTB"), -1.0 + 0.0j: ("PD", "MPD")}
    else:
        specials = {0.0 + 0.0j: ("TB", "MTB")}
    for point, (two, three) in specials.items():
        if abs(lam0 - point) <= sp_tol:
            if multiplicity == 2:
                return two
            if multiplicity == 3:
                return three
            return "KC"
    return "QKC"


def _collision_cluster(path: OperatorPath, t: float, around, radius: float):
    """On-region eigenvalues within radius of the collision site."""
    tt, eigs, tags = _regions(path, t)
    members = [l for l, g in zip(eigs, tags)
               if g in spectral.ON_REGIONS and abs(l - around) <= radius]
    return tt, members


def detect_events(trajectories: list[Trajectory],
                  path: OperatorPath) -> list[BifurcationEvent]:
    """Detect and classify collision events along tracked trajectories.

    Membership changes of the on-circle/on-axis partition are bisected to a
    tight bracket; collisions that stay on the region are reported as
    PASS_THROUGH.  Event kinds follow the location/multiplicity taxonomy
    (generic points vs the symmetric points 1, -1 for unitaries and 0 for
    hermitians).
    """
    events: list[BifurcationEvent] = []
    if not trajectories or len(trajectories[0].samples) < 2:
        return events
    times = trajectories[0].times()
    rho = 1.0 + float(np.max(np.abs(path.sample(times[0])[1])))
    width_target = max(1e-8 * max(1.0, abs(path.span)), 1e-12)
    sp_tol = max(config.DEFAULT.spectrum_match, 100.0 * width_target)

    on_counts = []
    for k in range(len(times)):
        on_counts.append(sum(1 for tr in trajectories
                             if tr.samples[k].region in spectral.ON_REGIONS))

    # --- membership-change events (KC family)
    for k in range(len(times) - 1):
        if on_counts[k] == on_counts[k + 1]:
            continue
        lo, hi = float(times[k]), float(times[k + 1])
        c_lo = _on_count(path, lo)
        c_hi = _on_count(path, hi)
        if c_lo == c_hi:
            continue
        while hi - lo > width_target:
            mid = (lo + hi) / 2.0
            c_mid = _on_count(path, mid)
            if c_mid == c_lo:
                lo = mid
            else:
                hi = mid
        direction = "departure" if c_hi < c_lo else "arrival"
        t_on = lo if direction == "departure" else hi
        t_off = hi if direction == "departure" else lo
        # moving eigenvalues: matched across the bracket, those whose
        # on-region membership changes
        tt_on, eigs_on, tags_on = _regions(path, t_on)
        tt_off, eigs_off, tags_off = _regions(path, t_off)
        cost = np.abs(eigs_on[:, None] - eigs_off[None, :])
        rows, cols = numerics.optimal_assignment(cost)
        moving_pos = []
        for i, j in zip(rows, cols):
            was_on = tags_on[i] in spectral.ON_REGIONS
            is_on = tags_off[j] in spectral.ON_REGIONS
            if was_on and not is_on:
                moving_pos.append(eigs_on[i])
        if not moving_pos:
            raise UnresolvedEvent("membership changed but no moving eigenvalue "
                                  "identified", bracket=(lo, hi))
        # collision sites: moving eigenvalues grouped by position on the
        # on-region side (mirror sites of a quadruple stay separate events)
        moving_pos = np.asarray(moving_pos, dtype=complex)
        site_delta = max(1e3 * width_target * rho, 1e-2 * rho)
        for group in spectral.cluster_eigenvalues(moving_pos, site_delta):
            lam0 = complex(np.mean(moving_pos[group]))
            spread = max((abs(moving_pos[g] - lam0) for g in group), default=0.0)
            radius = max(10.0 * spread, 1e3 * width_target * rho,
                         spectral.default_delta(eigs_on) * 10)
            tt_on2, members = _collision_cluster(path, t_on, lam0, radius)
            multiplicity = len(members)
            lam0 = complex(np.mean(members)) if members else lam0
            nu_on = (_cluster_inertia(path, tt_on2, np.array(members))
                     if members else None)
            _, members_off = _collision_cluster(path, t_off, lam0, radius)
            nu_off = (_cluster_inertia(path, t_off, np.array(members_off))
                      if members_off else None)
            if direction == "departure":
                nu_before, nu_after = nu_on, nu_off
            else:
                nu_before, nu_after = nu_off, nu_on
            kind = _classify_event(path, lam0, multiplicity, sp_tol)
            events.append(BifurcationEvent(
                event_kind=kind, t0=(lo + hi) / 2.0, bracket=(lo, hi),
                lambda0=lam0, multiplicity=multiplicity,
                inertia_before=nu_before, inertia_after=nu_after,
                direction=direction))

    # --- on-region collisions without departure (PASS_THROUGH)
    span = max(1.0, abs(path.span))
    for cand in _detect_pass_through(trajectories, path, rho):
        near_event = any(
            abs(cand.t0 - e.t0) <= max(10.0 * (e.bracket[1] - e.bracket[0]),
                                       1e-3 * span)
            and abs(cand.lambda0 - e.lambda0) <= 0.05 * rho
            for e in events if e.event_kind != "PASS_THROUGH")
        if not near_event:
            events.append(cand)
    events.sort(key=lambda e: e.t0)
    return events


def _detect_pass_through(trajectories, path: OperatorPath,
                         rho) -> list[BifurcationEvent]:
    events = []
    if not trajectories:
        return events
    times = trajectories[0].times()
    values = [tr.values() for tr in trajectories]
    n = len(trajectories)
    thresh_scan = 0.05 * rho
    thresh_hit = max(100.0 * spectral.default_delta(path.sample(times[0])[1]),
                     1e-9 * rho)
    for i in range(n):
        for j in range(i + 1, n):
            si, sj = trajectories[i].samples, trajectories[j].samples
            d = np.abs(values[i] - values[j])
            on = np.array([
                a.region in spectral.ON_REGIONS and b.region in spectral.ON_REGIONS
                for a, b in zip(si, sj)])
            for k in range(len(times)):
                if not on[k] or d[k] > thresh_scan:
                    continue
                is_min = (k == 0 or d[k] <= d[k - 1]) and \
                         (k == len(times) - 1 or d[k] <= d[k + 1])
                if not is_min:
                    continue
                lo = times[max(k - 1, 0)]
                hi = times[min(k + 1, len(times) - 1)]
                t_min, d_min = _refine_min_distance(path, times, values[i],
                                                    values[j], lo, hi)
                if d_min > thresh_hit:
                    continue
                _, eigs_c, tags_c = _regions(path, t_min)
                pos = _interp(t_min, times, values[i])
                close = int(np.argmin(np.abs(eigs_c - pos)))
                lam0 = complex(eigs_c[close])
                if tags_c[close] not in spectral.ON_REGIONS:
                    continue
                if any(abs(e.t0 - t_min) < 1e-6 * max(1.0, abs(path.span))
                       and abs(e.lambda0 - lam0) < 0.05 * rho
                       and e.event_kind == "PASS_THROUGH" for e in events):
                    continue
                radius = max(10 * d_min, 1e-6 * rho)
                _, members = _collision_cluster(path, t_min, lam0, radius)
                nu = (_cluster_inertia(path, t_min, np.array(members))
                      if members else None)
                mult = len(members) if nu is not None else 2
                events.append(BifurcationEvent(
                    event_kind="PASS_THROUGH", t0=float(t_min),
                    bracket=(float(lo), float(hi)), lambda0=lam0,
                    multiplicity=mult, inertia_before=nu, inertia_after=nu,
                    direction="on-region"))
    return events


def _interp(tv: float, times: np.ndarray, values: np.ndarray) -> complex:
    """Piecewise-linear value of a tracked branch at tv."""
    return complex(np.interp(tv, times, values.real)
                   + 1j * np.interp(tv, times, values.imag))


def _refine_min_distance(path: OperatorPath, times, values_i, values_j, lo, hi):
    """Ternary search, in ``TERNARY_STEPS`` steps, for the minimal distance
    of two matched eigenvalue branches over [lo, hi]."""

    def dist(tv):
        eigs = path.sample(tv)[1]
        li = eigs[int(np.argmin(np.abs(eigs - _interp(tv, times, values_i))))]
        lj = eigs[int(np.argmin(np.abs(eigs - _interp(tv, times, values_j))))]
        return abs(li - lj)

    a, b = float(lo), float(hi)
    for _ in range(TERNARY_STEPS):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if dist(m1) <= dist(m2):
            b = m2
        else:
            a = m1
    tm = (a + b) / 2.0
    return tm, dist(tm)


def verify_krein_stability(events: list[BifurcationEvent],
                           trajectories: list[Trajectory]):
    """Check that every departure happened at indefinite inertia.

    Returns ``(ok, violations)`` where violations list the offending events.
    """
    violations = []
    for e in events:
        if e.event_kind == "PASS_THROUGH" or e.direction != "departure":
            continue
        nu = e.inertia_before
        if nu is None or not nu.indefinite:
            violations.append(e)
    return (len(violations) == 0, violations)


def trajectories_to_csv(trajectories: list[Trajectory], fileobj=None) -> str:
    """CSV export: t, track_id, re(lambda), im(lambda), nu_plus, nu_minus, region."""
    buf = fileobj if fileobj is not None else io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "track_id", "re", "im", "nu_plus", "nu_minus", "region"])
    for tr in trajectories:
        for s in tr.samples:
            nu_p = s.nu.nu_plus if s.nu is not None else ""
            nu_m = s.nu.nu_minus if s.nu is not None else ""
            w.writerow([repr(s.t), tr.track_id, repr(s.value.real),
                        repr(s.value.imag), nu_p, nu_m, s.region or ""])
    return buf.getvalue() if fileobj is None else ""


# ----------------------------------------------------------------- library

def _reject_unknown(name: str, params: dict):
    if params:
        raise UnknownScenario(
            f"scenario {name!r} does not take parameters {sorted(params)}")


def scenario_library(name: str, params: dict | None = None) -> OperatorPath:
    """Curated example paths realizing each bifurcation scenario.

    Every entry carries its expected event list as a fixture for tests.
    """
    params = dict(params or {})

    if name == "finex":
        sigma = int(params.pop("sigma", 1))
        sigma_p = int(params.pop("sigma_prime", 1))
        t_max = float(params.pop("t_max", 1.0))
        if sigma not in (-1, 1) or sigma_p not in (-1, 1):
            raise UnknownScenario("finex needs sigma, sigma_prime in {-1,1}")
        R = make_real_structure((1, 1), 1, 1)

        def sampler(t):
            c, s = np.cosh(t * t_max), np.sinh(t * t_max)
            return np.array([[sigma * c, sigma_p * s],
                             [-sigma_p * s, -sigma * c]], dtype=complex)

        _reject_unknown("finex", params)
        return OperatorPath(sampler=sampler, structure=R.K, kind="unitary",
                            real_structure=R, name=f"finex(s={sigma},s'={sigma_p})")

    if name == "kc2x2":
        K = make_standard(1, 1)

        def sampler(t):
            return np.array([[t, 1.0], [-1.0, -t]], dtype=complex)

        _reject_unknown("kc2x2", params)
        path = OperatorPath(sampler=sampler, structure=K, kind="hermitian",
                            t_start=0.0, t_end=2.0, name="kc2x2")
        path.expected_events = [
            {"event_kind": "KC", "t0": 1.0, "lambda0": 0.0 + 0.0j,
             "multiplicity": 2, "direction": "arrival"}]
        return path

    if name in ("tb", "pd"):
        zeta = -1.0 if name == "tb" else 1.0
        R = make_real_structure((1, -1), 1, 1)
        p = CayleyParams(z=1j, zeta=zeta)

        def hermitian_at(t):
            tau = 2.0 - 1.5 * t
            return np.array([[tau, 1.0], [-1.0, -tau]], dtype=complex)

        def sampler(t):
            return cayley_op(hermitian_at(t), R.K, p)

        _reject_unknown(name, params)
        lam0 = 1.0 + 0.0j if name == "tb" else -1.0 + 0.0j
        path = OperatorPath(sampler=sampler, structure=R.K, kind="unitary",
                            real_structure=R, name=name)
        path.expected_events = [
            {"event_kind": name.upper(), "t0": 2.0 / 3.0, "lambda0": lam0,
             "multiplicity": 2, "direction": "departure"}]
        return path

    if name in ("mtb", "mpd"):
        zeta = -1.0 if name == "mtb" else 1.0
        R = make_real_structure((1, 1), 2, 1)
        p = CayleyParams(z=1j, zeta=zeta)
        r_cpl = 0.6

        def hermitian_at(t):
            pv = 1.2 * (1.0 - t)
            b = np.array([[0.0, -pv, r_cpl], [pv, 0.0, 0.0], [r_cpl, 0.0, 0.0]])
            return 1j * b

        def sampler(t):
            return cayley_op(hermitian_at(t), R.K, p)

        _reject_unknown(name, params)
        lam0 = 1.0 + 0.0j if name == "mtb" else -1.0 + 0.0j
        path = OperatorPath(sampler=sampler, structure=R.K, kind="unitary",
                            real_structure=R, name=name)
        path.expected_events = [
            {"event_kind": name.upper(), "t0": 0.5, "lambda0": lam0,
             "multiplicity": 3, "direction": "departure"}]
        return path

    if name == "qkc":
        # collision site C(c); c large enough that neither circle branch
        # crosses the real points of the circle before the collision
        c = float(params.pop("c", 2.2))
        R = make_real_structure((1, 1), 2, 2)
        K1 = make_standard(1, 1)
        p = CayleyParams(z=1j, zeta=-1.0)
        lam0 = complex(cayley_op(np.array([[c]], dtype=complex),
                                 make_standard(1, 0), p)[0, 0])

        def sampler(t):
            a = 2.0 - 2.0 * t
            h2 = c * np.eye(2) + np.array([[a, 1.0], [-1.0, -a]])
            t2 = cayley_op(h2.astype(complex), K1, p)
            big = np.block([[t2.real, -t2.imag], [t2.imag, t2.real]])
            # reorder (x1,x2,y1,y2) -> (x1,y1,x2,y2) to restore the J-grading
            idx = [0, 2, 1, 3]
            return big[np.ix_(idx, idx)].astype(complex)

        _reject_unknown("qkc", params)
        path = OperatorPath(sampler=sampler, structure=R.K, kind="unitary",
                            real_structure=R, name="qkc")
        path.expected_events = [
            {"event_kind": "QKC", "t0": 0.5, "lambda0": lam0,
             "multiplicity": 2, "direction": "departure"},
            {"event_kind": "QKC", "t0": 0.5, "lambda0": np.conj(lam0),
             "multiplicity": 2, "direction": "departure"}]
        return path

    raise UnknownScenario(f"unknown scenario {name!r}; choose from "
                          "finex, kc2x2, qkc, tb, mtb, pd, mpd")
