"""Profile solution container shared by the integrator and all consumers.

Each profile's dense (F, F') evaluator is an ``equation.piecewise``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .equation import f_from_F

if TYPE_CHECKING:
    from .model import Exponents, Params


class Classification(enum.Enum):
    CLASS_A = "ClassA"            # contact with strictly negative slope
    CLASS_C = "ClassC"            # slope turns non-negative before contact
    CANDIDATE_B = "CandidateB"    # tangential contact within tolerance
    UNDETERMINED = "Undetermined"


class StopReason(enum.Enum):
    CONTACT_ZERO = "ContactZero"
    SLOPE_SIGN_CHANGE = "SlopeSignChange"
    HORIZON_REACHED = "HorizonReached"
    STEP_FAILURE = "StepFailure"


@dataclass
class ProfileSolution:
    """Dense numerical profile in the F = f^m variables.

    ``grid`` starts at the launch offset and ends at the stopping
    event, or, for a matched profile, a tail distance short of ``xi0``.
    ``dense`` evaluates (F, F') at any xi >= 0: the profile up to xi0, or
    up to and including grid[-1] when ``xi0`` is unknown, and zero beyond.
    """

    params: "Params"
    exps: "Exponents"
    grid: np.ndarray
    F_values: np.ndarray
    Fprime_values: np.ndarray
    xi0: Optional[float]
    xi1: Optional[float]
    classification: Classification
    stop_reason: StopReason
    dense: Callable = field(repr=False, compare=False)
    f0: float = 1.0

    @property
    def xi_max(self) -> float:
        """End of the stored grid."""
        return float(self.grid[-1])

    @property
    def f_values(self) -> np.ndarray:
        return f_from_F(self.params.m, self.F_values, self.Fprime_values)[0]

    @property
    def fprime_values(self) -> np.ndarray:
        """f' recovered from F' via f' = F' / (m f^{m-1})."""
        return f_from_F(self.params.m, self.F_values, self.Fprime_values)[1]

    def eval_F(self, xi):
        """Evaluate (F, F') at ``xi``; zero beyond the support endpoint."""
        xi = np.asarray(xi, dtype=float)
        F, Fp = self.dense(np.clip(xi, 0.0, None))
        np.clip(F, 0.0, None, out=F)
        if xi.ndim == 0:
            return float(F[0]), float(Fp[0])
        return F, Fp

    def eval_f(self, xi):
        """Evaluate the profile f = F^{1/m} at ``xi``."""
        return f_from_F(self.params.m, *self.eval_F(xi))[0]

    @property
    def contact_F(self) -> Optional[float]:
        if self.stop_reason is StopReason.CONTACT_ZERO:
            return float(self.F_values[-1])
        return None

    @property
    def contact_slope(self) -> Optional[float]:
        """F' at the contact event, if the profile stopped by contact."""
        if self.stop_reason is StopReason.CONTACT_ZERO:
            return float(self.Fprime_values[-1])
        return None


@dataclass
class LimitProfile:
    """Solution of the beta -> 0 limit problem H'' + (N-1)/xi H' = xi^sigma H^{q/m}."""

    params: "Params"
    grid: np.ndarray
    H_values: np.ndarray
    Hprime_values: np.ndarray
    dense: Callable = field(repr=False, compare=False)

    @property
    def horizon(self) -> float:
        """End of the integration: the horizon or the overflow guard."""
        return float(self.grid[-1])

    def eval_H(self, xi):
        return self.dense(xi)
