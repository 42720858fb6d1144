"""Outside-in layer tracing for the benchmark.

The wrappers are installed from here, around the public functions of the
traced kreinlab modules, and in every kreinlab namespace that binds them:
``form_inertia`` is imported by name into ``homotopy``, ``is_j_hermitian``
into ``spectral``, ``signature`` and ``retraction``, so a wrapper on the
defining module alone would miss those calls.  LU factorizations are seen
by wrapping ``lu_factor`` and ``lu_solve`` on ``scipy.linalg`` itself, which
kreinlab modules hold as ``sla`` and look up at call time.  Nothing under
``src/`` is edited.

Spans nest: each wrapped call is a span whose parent is the innermost
wrapped call still open.  A span's self time is its duration minus the time
covered by its child spans.  Spans are aggregated in memory per name and per
(parent, child) edge and reported when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import scipy.linalg

TRACED_MODULES = ("numerics", "spectral", "signature", "krein", "realsym",
                  "homotopy", "retraction", "cli")

# Leaf helpers called so often that a wrapper would cost more than they do
# and distort the self time of every caller; no per-layer metric uses them.
UNTRACED = {("numerics", "as_matrix"), ("numerics", "norm"), ("realsym", "conj")}

# Private helpers that a per-layer metric needs.  A later change may remove
# them; the tracer then lists them as absent instead of failing.
PRIVATE = (("homotopy", "_refine_min_distance"),)

MEMBERSHIP = {"krein.is_j_unitary", "krein.is_j_hermitian", "realsym.is_member"}
SAMPLER = "homotopy.OperatorPath.__call__"
LU_FACTOR = "scipy.linalg.lu_factor"
LU_SOLVE = "scipy.linalg.lu_solve"


class Tracer:
    """Aggregated spans plus the counters that per-layer ratios need."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edge_calls = defaultdict(int)
        self.edge_s = defaultdict(float)
        self.membership_outer = 0
        self.sampler_repeats = 0
        self.track_accepted = 0
        self.events = 0
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._membership_depth = 0
        self._seen_samples: set = set()
        self._undo: list = []

    def begin_item(self):
        self._seen_samples.clear()

    # ----------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        membership = name in MEMBERSHIP
        after = {SAMPLER: self._after_sampler,
                 "homotopy.track": self._after_track,
                 "homotopy.detect_events": self._after_events}.get(name)

        def wrapper(*args, **kwargs):
            if membership:
                if self._membership_depth == 0:
                    self.membership_outer += 1
                self._membership_depth += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    self.edge_calls[(parent[0], name)] += 1
                    self.edge_s[(parent[0], name)] += dur
                if membership:
                    self._membership_depth -= 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _after_sampler(self, args, result):
        key = (id(args[0]), float(args[1]))
        if key in self._seen_samples:
            self.sampler_repeats += 1
        else:
            self._seen_samples.add(key)

    def _after_track(self, args, result):
        if result:
            self.track_accepted += len(result[0].samples)

    def _after_events(self, args, result):
        self.events += len(result)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced functions in every kreinlab namespace."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"kreinlab.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (short, attr) not in UNTRACED):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for short, attr in PRIVATE:
            mod = importlib.import_module(f"kreinlab.{short}")
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj):
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            else:
                self.absent.append(f"{short}.{attr}")
        for name, mod in list(sys.modules.items()):
            if name != "kreinlab" and not name.startswith("kreinlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        self._set(scipy.linalg, "lu_factor",
                  self._wrap(LU_FACTOR, scipy.linalg.lu_factor))
        self._set(scipy.linalg, "lu_solve",
                  self._wrap(LU_SOLVE, scipy.linalg.lu_solve))
        path_cls = importlib.import_module("kreinlab.homotopy").OperatorPath
        self._set(path_cls, "__call__", self._wrap(SAMPLER, path_cls.__call__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ----------------------------------------------------------- reporting

    def table(self) -> list[str]:
        """Per-span lines, heaviest self time first."""
        lines = []
        names = [n for n, calls in self.calls.items() if calls]
        for name in sorted(names, key=lambda n: -self.self_s[n]):
            lines.append(f"  {name:44s} calls {self.calls[name]:8d}  "
                         f"total {self.total_s[name]:9.4f} s  "
                         f"self {self.self_s[name]:9.4f} s")
        return lines

    def layer_metrics(self, items: int) -> dict:
        """Per-layer metrics as (value, unit); names are the benchmark's."""
        c, s = self.calls, self.total_s

        def ratio(num, den):
            return num / den if den else 0.0

        riesz = "spectral.riesz_projection"
        track = "homotopy.track"
        retract = "retraction.retract_to_model"
        stages = {"flatten": "retraction.spectral_flatten",
                  "lift": "retraction.lift_kernel",
                  "frames": "retraction.lagrangian_frames",
                  "straighten": "retraction.straighten"}
        ternary = "homotopy._refine_min_distance"
        out = {
            "numerics.eigvals.calls": (c["numerics.eigvals"], "count"),
            "numerics.eigvals.s": (s["numerics.eigvals"], "s"),
            "numerics.lu.calls": (c[LU_FACTOR], "count"),
            "numerics.lu.s": (s[LU_FACTOR] + s[LU_SOLVE], "s"),
            "numerics.expm.calls": (c["numerics.matrix_exp"], "count"),
            "numerics.expm.s": (s["numerics.matrix_exp"], "s"),
            "spectral.partition.calls": (c["spectral.spectral_partition"], "count"),
            "spectral.partition.s": (s["spectral.spectral_partition"], "s"),
            "spectral.partitions_per_item": (
                ratio(c["spectral.spectral_partition"], items), "1/item"),
            "spectral.riesz.calls": (c[riesz], "count"),
            "spectral.riesz.s": (s[riesz], "s"),
            "spectral.quad_points_per_riesz": (
                ratio(self.edge_calls[(riesz, LU_FACTOR)], c[riesz]), "count"),
            "signature.form_inertia.calls": (c["signature.form_inertia"], "count"),
            "signature.form_inertia.s": (s["signature.form_inertia"], "s"),
            "krein.membership.calls": (self.membership_outer, "count"),
            "krein.membership_per_item": (
                ratio(self.membership_outer, items), "1/item"),
            "homotopy.track.s": (s[track], "s"),
            "homotopy.detect_events.s": (s["homotopy.detect_events"], "s"),
            "homotopy.sampler.calls": (c[SAMPLER], "count"),
            "homotopy.sampler.s": (s[SAMPLER], "s"),
            "homotopy.sampler.repeat_ratio": (
                ratio(self.sampler_repeats, c[SAMPLER]), "ratio"),
            "homotopy.track.accept_ratio": (
                ratio(self.track_accepted, self.edge_calls[(track, SAMPLER)]),
                "ratio"),
            "homotopy.ternary.calls": (c[ternary], "count"),
            "homotopy.ternary.s": (s[ternary], "s"),
            "homotopy.events": (self.events, "count"),
        }
        for stage, fn in stages.items():
            out[f"retraction.{stage}.s"] = (s[fn], "s")
        out["retraction.final.s"] = (
            s[retract] - sum(self.edge_s[(retract, fn)] for fn in stages.values()),
            "s")
        return out
