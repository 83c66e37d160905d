"""Spans recorded around the package's layer boundaries, from outside.

``Tracer.install`` rebinds each public function at the name through
which the package calls it (for example ``integrate_profile`` as bound in
``eternalprofile.shooting``, or ``solve_ivp`` as bound in
``eternalprofile.integrate`` and ``eternalprofile.matching``) to a
wrapper that records a span while the tracer is recording.  Spans stay
in memory; ``per_layer`` derives self times and counts from them, and
``dump`` writes them out at the end of a run.  The program's sources are
not changed.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: (module, attribute, layer name) for every wrapped boundary.
TARGETS = (
    ("eternalprofile", "solve", "shooting.solve"),
    ("eternalprofile.shooting", "solve", "shooting.solve"),
    ("eternalprofile.shooting", "bracket_beta", "shooting.bracket_beta"),
    ("eternalprofile.shooting", "bisect_beta", "shooting.bisect_beta"),
    ("eternalprofile.shooting", "integrate_profile", "integrate.integrate_profile"),
    ("eternalprofile.shooting", "match_profile", "matching.match_profile"),
    ("eternalprofile.matching", "interface_samples", "matching.interface_samples"),
    ("eternalprofile.integrate", "solve_ivp", "solve_ivp"),
    ("eternalprofile.matching", "solve_ivp", "solve_ivp"),
    ("eternalprofile.asymptotics", "fit_interface", "asymptotics.fit_interface"),
    ("eternalprofile.asymptotics", "upper_bounds_check", "asymptotics.upper_bounds_check"),
    ("eternalprofile.phasespace", "to_phase_coords", "phasespace.to_phase_coords"),
    ("eternalprofile.phasespace", "stable_manifold_ratio", "phasespace.stable_manifold_ratio"),
    ("eternalprofile.pdecheck", "profile_ode_residual", "pdecheck.profile_ode_residual"),
    ("eternalprofile.pdecheck", "pde_residual", "pdecheck.pde_residual"),
    ("eternalprofile.pdecheck", "eternal_trace", "pdecheck.eternal_trace"),
    ("eternalprofile.cli", "run", "cli.run"),
    ("eternalprofile.cli", "load_config", "config.load_config"),
    ("eternalprofile.cli", "write_report", "report.write_report"),
    ("eternalprofile.cli", "export_profile_csv", "report.export_profile_csv"),
    ("eternalprofile.cli", "line_chart", "svgplot.line_chart"),
)

#: Layers that write a file; the second positional argument is its path.
WRITERS = {"report.write_report", "report.export_profile_csv", "svgplot.line_chart"}


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)
    # an integrator span inside integrate_profile or interface_samples is
    # that layer's own work, so it is not subtracted from the layer's self time
    owned: bool = False
    raised: bool = False    # the call raised, so it returned no counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.recording = False
        self.installed: set = set()
        self.missing: set = set()
        self._saved = []

    def install(self) -> None:
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.add(layer)
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer))
            self.installed.add(layer)
        self.missing -= self.installed

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            tracer._annotate(span, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name,
                    None if parent is None else parent.sid, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _annotate(self, span: Span, args, kwargs, out) -> None:
        name = span.name
        if name == "solve_ivp":
            self._name_integrator(span, args, kwargs, out)
        elif name == "integrate.integrate_profile" and len(args) > 1:
            span.attrs["beta"] = getattr(args[1], "beta", float("nan"))
        elif name == "shooting.bisect_beta" and hasattr(out, "iterations"):
            span.attrs["iterations"] = out.iterations
        elif name == "matching.match_profile" and hasattr(out, "nfev"):
            span.attrs["residual_evals"] = out.nfev
        elif name in WRITERS and len(args) > 1:
            try:
                span.attrs["bytes"] = os.path.getsize(args[1])
            except OSError:
                pass

    def _name_integrator(self, span: Span, args, kwargs, out) -> None:
        parent = self.spans[span.parent].name if span.parent is not None else ""
        t_span = kwargs.get("t_span", args[1] if len(args) > 1 else None)
        if parent == "matching.match_profile":
            if kwargs.get("dense_output"):
                span.name = "matching.assemble"
            elif t_span is not None and t_span[1] < t_span[0]:
                span.name = "matching.backward_leg"
            else:
                span.name = "matching.forward_leg"
        else:
            span.name = f"{parent or 'unparented'}.ivp"
            span.owned = True
        if hasattr(out, "nfev"):
            span.attrs["rhs_calls"] = out.nfev
        if getattr(out, "t", None) is not None and "t_eval" not in kwargs:
            span.attrs["steps"] = len(out.t) - 1

    @contextmanager
    def record(self, name: str):
        """Record one root span with everything under it."""
        self.recording = True
        span = self._open(name)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
            self.recording = False

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.__dict__ for s in self.spans], fh)


#: Per-layer metrics: name -> unit.  Each is given per operation.
LEG_METRICS = {f"matching.{leg}.{what}": unit
               for leg in ("backward_leg", "forward_leg")
               for what, unit in (("calls", "count"), ("steps", "count"),
                                  ("rhs_calls", "count"), ("s", "s"),
                                  ("us_per_step", "us"))}
PER_LAYER = {
    **LEG_METRICS,
    "matching.assemble.s": "s",
    "matching.match_profile.s": "s",
    "matching.match_profile.total_s": "s",
    "matching.match_profile.residual_evals": "count",
    "shooting.bisect_beta.s": "s",
    "shooting.bisect_beta.total_s": "s",
    "shooting.bisect_beta.iterations": "count",
    "shooting.bisect_beta.integrations": "count",
    "integrate.integrate_profile.calls": "count",
    "integrate.integrate_profile.s": "s",
    "integrate.integrate_profile.steps": "count",
    "integrate.integrate_profile.rhs_calls": "count",
    "integrate.integrate_profile.us_per_step": "us",
    "shooting.bracket_beta.s": "s",
    "shooting.bracket_beta.total_s": "s",
    "shooting.bracket_beta.integrations": "count",
    "shooting.integrations_per_classification": "ratio",
    "shooting.solve.s": "s",
    "matching.interface_samples.calls": "count",
    "matching.interface_samples.s": "s",
    "matching.interface_samples.rhs_calls": "count",
    "asymptotics.fit_interface.s": "s",
    "asymptotics.fit_interface.total_s": "s",
    "asymptotics.upper_bounds_check.s": "s",
    "phasespace.stable_manifold_ratio.s": "s",
    "phasespace.stable_manifold_ratio.total_s": "s",
    "phasespace.to_phase_coords.s": "s",
    "pdecheck.profile_ode_residual.s": "s",
    "pdecheck.pde_residual.s": "s",
    "pdecheck.eternal_trace.s": "s",
    "report.write_report.s": "s",
    "report.write_report.bytes": "bytes",
    "report.export_profile_csv.s": "s",
    "report.export_profile_csv.bytes": "bytes",
    "svgplot.line_chart.s": "s",
    "svgplot.line_chart.bytes": "bytes",
    "config.load_config.s": "s",
    "cli.run.self_s": "s",
}


def per_layer(tracer: Tracer, n_ops: int) -> Dict[str, Optional[float]]:
    """Per-operation layer metrics; None marks a counter the run could not see."""
    spans = tracer.spans
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def self_time(s: Span) -> float:
        return s.duration - sum(c.duration for c in children.get(s.sid, ())
                                if not c.owned)

    def inclusive(s: Span, attr: str) -> Optional[float]:
        """An attribute summed over the span and its owned integrator spans."""
        vals = [c.attrs.get(attr) for c in children.get(s.sid, ()) if c.owned]
        vals.append(s.attrs.get(attr))
        vals = [v for v in vals if v is not None]
        return sum(vals) if vals else None

    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    out: Dict[str, Optional[float]] = {}
    legs_seen = any(named(f"matching.{leg}") for leg in
                    ("backward_leg", "forward_leg", "assemble"))
    for metric in PER_LAYER:
        layer, what = metric.rsplit(".", 1)
        target = "cli.run" if metric == "cli.run.self_s" else layer
        if metric == "shooting.integrations_per_classification":
            continue
        if target in ("matching.backward_leg", "matching.forward_leg",
                      "matching.assemble"):
            if named("matching.match_profile") and not legs_seen:
                out[metric] = None    # matching ran but no integrator was seen
                continue
            if "solve_ivp" in tracer.missing:
                out[metric] = None
                continue
        elif target in tracer.missing:
            out[metric] = None
            continue
        group = named(target)
        if what in ("s", "self_s"):
            val = sum(self_time(s) for s in group)
        elif what == "total_s":
            val = sum(s.duration for s in group)
        elif what == "calls":
            val = len(group)
        elif what == "integrations":
            val = sum(1 for s in group for c in children.get(s.sid, ())
                      if c.name == "integrate.integrate_profile")
        elif what == "us_per_step":
            steps = sum(inclusive(s, "steps") or 0 for s in group)
            secs = sum(self_time(s) for s in group)
            val = 1e6 * secs / steps if steps else 0.0
        else:
            # a call that raised returned no count; the others must have one
            vals = [inclusive(s, what) for s in group if not s.raised]
            if any(v is None for v in vals):
                out[metric] = None
                continue
            val = sum(vals)
        out[metric] = val / n_ops if n_ops and what != "us_per_step" else val

    # wasted work: integrations per forward classification, where a
    # classification is a run of integrations at one beta (tightening re-runs)
    runs = integrations = 0
    for parent in named("shooting.bracket_beta") + named("shooting.bisect_beta"):
        last = None
        for c in children.get(parent.sid, ()):
            if c.name != "integrate.integrate_profile":
                continue
            integrations += 1
            beta = c.attrs.get("beta")
            if beta != last:
                runs += 1
            last = beta
    out["shooting.integrations_per_classification"] = (
        integrations / runs if runs else None
        if "integrate.integrate_profile" in tracer.missing else 0.0)
    return out
