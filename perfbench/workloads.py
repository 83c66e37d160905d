"""Seeded workloads, their operations and the correctness gate of each.

Every workload is built from rounds.  A round is a fixed design of
parameter levels; the seed only jitters each level by a few thousandths,
so every seed exercises the same mix of work while the program never
sees the same inputs twice.  Runs execute whole rounds, which keeps the
mix of a run independent of how many rounds fit into its time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import eternalprofile
from eternalprofile import cli, pdecheck

Triple = Tuple[float, float, int]

#: Parameter sets with stored matching seeds in the solver.  The
#: benchmark never generates them, so removing the seed table cannot
#: change what it measures.
SEEDED_TRIPLES = frozenset(
    {(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1)}
)

#: Largest relative ODE residual accepted on [0.05 xi0, 0.9 xi0], the
#: bound of acceptance criterion 7.
ODE_RESIDUAL_MAX = 1e-6

#: Closed-form gates on the critical line m + q = 2.
ORACLE_BETA_RTOL = 1e-10
ORACLE_XI0_RTOL = 1e-4
ORACLE_F_ATOL = 1e-7

#: Acceptance thresholds the CLI reports are held to (criteria 2, 3, 5).
THETA_RTOL = 0.02
AMPLITUDE_RTOL = 0.05
W_OVER_Z_DEVIATION_MAX = 0.05

#: Accuracy is reported in decimal digits, capped at double precision.
DIGITS_CAP = 16.0

CLI_MODES = ("solve", "asymptotics", "phase", "verify")


def digits(err: float) -> float:
    """-log10 of an error, capped at DIGITS_CAP (an exact hit reads 16)."""
    if not err > 10.0**-DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


@dataclass(frozen=True)
class Exact:
    """Closed-form profile on m + q = 2: f = (1 - xi^2/xi0^2)^k."""

    beta: float
    xi0: float
    k: float


def critical_exact(q: float, N: int) -> Exact:
    k = 1.0 / (1.0 - q)
    xi0 = (2.0 * (k + 1.0) * (2.0 * k + N)) ** 0.25
    return Exact(beta=N * (k + 1.0) / (k * xi0**2), xi0=xi0, k=k)


@dataclass
class Outcome:
    """What one operation produced, judged by its workload's gate."""

    ok: bool                  # the operation passed its gate
    detail: str = ""
    accuracy: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    """One operation: a library solve of a triple, or one CLI call."""

    triple: Triple
    mode: Optional[str] = None    # CLI mode; None for a library solve

    @property
    def label(self) -> str:
        m, q, N = self.triple
        base = f"({m:g}, {q:g}, {N})"
        return base if self.mode is None else f"{self.mode} {base}"


def in_bracket(beta: float, lo: float, hi: float) -> bool:
    """beta lies in the bisection bracket widened by its width on each side.

    Forward classification is noise-limited next to beta*: on sub-critical
    N = 1 triples the final bracket can exclude the matched beta* by about
    half its own width (2.9e-9 relative at (1.21, 0.21, 1)).
    """
    width = hi - lo
    return lo - width <= beta <= hi + width


def gate_solve(result, exact: Optional[Exact] = None) -> Outcome:
    """Correctness gate for one returned ShootingResult.

    The matched beta* must agree with the independent forward-bisection
    bracket (see ``in_bracket``), and the dense profile must satisfy the ODE on its interior.
    With ``exact`` given, beta*, xi0 and f are also compared with the
    closed form.
    """
    match = result.match
    if match is None or not match.success:
        return Outcome(False, "matching did not succeed")
    if not in_bracket(result.beta_star, result.bracket_lo, result.bracket_hi):
        return Outcome(
            False,
            f"beta* {result.beta_star!r} outside bisection bracket "
            f"[{result.bracket_lo!r}, {result.bracket_hi!r}]",
        )
    sol = result.final_profile
    xi0 = float(sol.xi0)
    res = float(np.max(pdecheck.profile_ode_residual(
        sol, np.linspace(0.05 * xi0, 0.9 * xi0, 200))))
    if not res <= ODE_RESIDUAL_MAX:
        return Outcome(False, f"ODE residual {res:.2e}")
    if exact is None:
        return Outcome(True)
    beta_err = abs(result.beta_star / exact.beta - 1.0)
    xi0_err = abs(xi0 / exact.xi0 - 1.0)
    xi = np.linspace(0.0, min(xi0, exact.xi0), 2001)[:-1]
    f_err = float(np.max(np.abs(
        sol.eval_f(xi) - (1.0 - xi**2 / exact.xi0**2) ** exact.k)))
    accuracy = {
        "beta_digits": digits(beta_err),
        "xi0_digits": digits(xi0_err),
        "f_digits": digits(f_err),
    }
    if not (beta_err <= ORACLE_BETA_RTOL and xi0_err <= ORACLE_XI0_RTOL
            and f_err <= ORACLE_F_ATOL):
        return Outcome(
            False,
            f"oracle mismatch: beta {beta_err:.2e}, xi0 {xi0_err:.2e}, "
            f"f {f_err:.2e}",
            accuracy,
        )
    return Outcome(True, accuracy=accuracy)


def gate_report(mode: str, report: dict) -> Outcome:
    """Correctness gate for one CLI ``report.json``."""
    if report.get("status") != "ok":
        return Outcome(False, f"status {report.get('status')!r}")
    r = report["results"]
    if mode == "solve":
        if not in_bracket(r["beta_star"], r["bracket_lo"], r["bracket_hi"]):
            return Outcome(False, "beta* outside bisection bracket")
    elif mode == "asymptotics":
        fit, pred = r["fitted"], r["predicted"]
        if abs(fit["theta_hat"] / pred["theta"] - 1.0) > THETA_RTOL:
            return Outcome(False, f"theta_hat {fit['theta_hat']!r}")
        if abs(fit["amplitude_hat"] / pred["amplitude"] - 1.0) > AMPLITUDE_RTOL:
            return Outcome(False, f"amplitude_hat {fit['amplitude_hat']!r}")
    elif mode == "phase":
        dev = r["tail"]["W_over_Z_deviation"]
        if not dev <= W_OVER_Z_DEVIATION_MAX:
            return Outcome(False, f"W/Z deviation {dev!r}")
    elif mode == "verify":
        if not r["ode_residual_max"] <= ODE_RESIDUAL_MAX:
            return Outcome(False, f"ODE residual {r['ode_residual_max']!r}")
    return Outcome(True)


class Workload:
    """A named round design; subclasses say how an operation runs."""

    name = ""
    why = ""

    def __init__(self, seed: int, work_dir: Path):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.used: set = set()

    def levels(self) -> List[Triple]:
        raise NotImplementedError

    def jitter(self, level: Triple) -> Triple:
        raise NotImplementedError

    def _draw(self, level: Triple) -> Triple:
        # a repeated triple would find the solver's per-triple cache warm;
        # redraw, and repeat only once the jitter set is exhausted
        for _ in range(64):
            t = self.jitter(level)
            if t not in self.used and t not in SEEDED_TRIPLES:
                break
        if t in SEEDED_TRIPLES:
            raise ValueError(f"level {level} only jitters onto seeded triples")
        self.used.add(t)
        return t

    def round(self) -> List[Op]:
        return [Op(self._draw(level)) for level in self.levels()]

    def run(self, op: Op):
        """Run one operation and return what it produced; the caller times it."""
        raise NotImplementedError

    def check(self, op: Op, produced) -> Outcome:
        """Judge what ``run`` produced; runs outside the timed region."""
        raise NotImplementedError


def _offset(rng: random.Random, lo: int, hi: int) -> float:
    return rng.randint(lo, hi) / 1000.0


class LibraryWorkload(Workload):
    """Operation: ``eternalprofile.solve(make_params(m, q, N))``."""

    def run(self, op: Op):
        m, q, N = op.triple
        return eternalprofile.solve(eternalprofile.make_params(m, q, N))

    def exact(self, op: Op) -> Optional[Exact]:
        return None

    def check(self, op: Op, produced) -> Outcome:
        return gate_solve(produced, self.exact(op))


class Supercritical(LibraryWorkload):
    name = "supercritical"
    why = ("m + q > 2 (q = 0.5, m in (1.6, 1.95], N = 1..3): the backward "
           "matching leg does most of the work")

    def levels(self):
        # a continuum of costs keeps the median steady: m steps by 0.03
        # while N cycles, so each N meets the whole range of m
        return [(round(1.6 + 0.03 * i, 2), 0.5, 1 + i % 3) for i in range(12)]

    def jitter(self, level):
        m, q, N = level
        return (round(m + _offset(self.rng, 1, 20), 3), q, N)


class CriticalOracle(LibraryWorkload):
    name = "critical_oracle"
    why = ("m + q = 2 (q in [0.2, 0.7], N = 1..3): the only workload with "
           "exact answers, so a speed-up that costs accuracy shows")

    def levels(self):
        return [(round(2.0 - q, 3), q, N)
                for q in (0.22, 0.3, 0.38, 0.46, 0.54, 0.62, 0.7)
                for N in (1, 2, 3)]

    def jitter(self, level):
        _, q, N = level
        q = round(q - _offset(self.rng, 0, 20), 3)
        return (round(2.0 - q, 3), q, N)

    def exact(self, op):
        return critical_exact(op.triple[1], op.triple[2])


class CliSubcritical(Workload):
    """Operation: one in-process ``eternalprofile.cli.main`` call."""

    name = "cli_subcritical"
    why = ("m + q < 2 through the CLI: each triple runs solve, asymptotics, "
           "phase and verify with --plots, the only repeated inputs")

    def levels(self):
        # the region where every mode passes its gate today; outside it the
        # asymptotics mode fails (see perfbench/README.md)
        return [(1.22, 0.2, 1), (1.26, 0.24, 2), (1.3, 0.2, 3),
                (1.3, 0.26, 1), (1.24, 0.22, 3), (1.28, 0.28, 2)]

    def jitter(self, level):
        m, q, N = level
        return (round(m - _offset(self.rng, 0, 20), 3),
                round(q + _offset(self.rng, 0, 20), 3), N)

    def config_path(self, triple: Triple) -> Path:
        m, q, N = triple
        return self.work_dir / f"m{m:g}_q{q:g}_N{N}.cfg"

    def round(self):
        ops = []
        for level in self.levels():
            t = self._draw(level)
            m, q, N = t
            self.config_path(t).write_text(f"m = {m!r}\nq = {q!r}\nN = {N}\n")
            ops.extend(Op(t, mode) for mode in CLI_MODES)
        return ops

    def out_dir(self, op: Op) -> Path:
        return self.config_path(op.triple).with_suffix("") / op.mode

    def run(self, op):
        return cli.main([op.mode, "--config", str(self.config_path(op.triple)),
                         "--out", str(self.out_dir(op)), "--plots"])

    def check(self, op, produced):
        path = self.out_dir(op) / "report.json"
        if not path.is_file():
            return Outcome(False, f"exit {produced}, no report.json")
        outcome = gate_report(op.mode, json.loads(path.read_text()))
        if produced != 0 and outcome.ok:
            outcome = Outcome(False, f"exit code {produced}")
        return outcome


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (Supercritical, CriticalOracle, CliSubcritical)
}
