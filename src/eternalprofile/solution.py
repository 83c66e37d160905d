"""Profile solution container shared by the integrator and all consumers."""

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

    ``grid`` starts at the launch offset delta0 and ends at the stopping
    event.  ``dense`` evaluates (F, F') anywhere in [0, grid[-1]]; beyond
    the support endpoint the profile is extended by zero.
    """

    params: "Params"
    exps: "Exponents"
    grid: np.ndarray
    F_values: np.ndarray
    Fprime_values: np.ndarray
    xi0: Optional[float]
    xi1: Optional[float]
    xi_max: float
    classification: Classification
    stop_reason: StopReason
    contact_eps: float
    delta0: float
    dense: Callable = field(repr=False, compare=False)
    f0: float = 1.0
    label: str = "f"

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
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        F, Fp = self.dense(np.clip(xi, 0.0, self.grid[-1]))
        F, Fp = np.asarray(F, float).copy(), np.asarray(Fp, float).copy()
        outside = xi > (self.grid[-1] if self.xi0 is None else self.xi0)
        F[outside] = 0.0
        Fp[outside] = 0.0
        np.clip(F, 0.0, None, out=F)
        if scalar:
            return float(F[0]), float(Fp[0])
        return F, Fp

    def eval_f(self, xi):
        """Evaluate the profile f = F^{1/m} at ``xi``."""
        F, _ = self.eval_F(xi)
        return np.asarray(F) ** (1.0 / self.params.m)

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
    horizon: float
    dense: Callable = field(repr=False, compare=False)

    def eval_H(self, xi):
        H, Hp = self.dense(np.asarray(xi, dtype=float))
        return np.asarray(H, float), np.asarray(Hp, float)
