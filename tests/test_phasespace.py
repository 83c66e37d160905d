"""Phase-space coordinates, linearization, and interface asymptotics."""

import math

import numpy as np
import pytest

from eternalprofile import (
    CaseError,
    ProfileError,
    linearize_at_origin,
    make_params,
    stable_manifold_ratio,
    to_phase_coords,
)
from eternalprofile.phasespace import (
    _cumulative_trapezoid,
    coordinate_identity_residual,
    limit_point_check,
    vector_field,
)

# Frozen eigenvalue oracles for (m, q) = (1.2, 0.3), evaluated
# independently at 40-digit precision:
# lam1 = -(m-q)/sqrt(2(m+q)), lam2 = sqrt(2(m+q)),
# lam3 = -(2-m-q)/sqrt(2(m+q)).
LAM_ORACLE = (
    -0.51961524227066318806,
    1.7320508075688772935,
    -0.28867513459481288225,
)


def test_requires_subcritical():
    p = make_params(2.0, 0.5, 1)
    with pytest.raises(CaseError):
        linearize_at_origin(p)


def test_closed_form_eigenpairs_satisfy_matrix():
    p = make_params(1.2, 0.3, 1)
    lin = linearize_at_origin(p)
    for lam, vec in zip(lin.eigenvalues, lin.eigenvectors):
        np.testing.assert_allclose(
            lin.matrix @ vec, lam * vec, atol=1e-14
        )


def test_eigenvalues_against_oracle():
    lin = linearize_at_origin(make_params(1.2, 0.3, 1))
    np.testing.assert_allclose(lin.eigenvalues, LAM_ORACLE, rtol=1e-14)


def test_numeric_eigensolve_agrees():
    p = make_params(1.3, 0.4, 3)
    lin = linearize_at_origin(p)
    w = np.sort(np.linalg.eigvals(lin.matrix).real)
    np.testing.assert_allclose(w, np.sort(lin.eigenvalues), rtol=1e-12)


def test_vector_field_vanishes_at_origin():
    p = make_params(1.2, 0.3, 1)
    assert vector_field((0.0, 0.0, 0.0), p) == (0.0, 0.0, 0.0)


def test_vector_field_linearization_consistent():
    # directional derivative of the quadratic field at the origin must
    # reproduce the linearization matrix
    p = make_params(1.2, 0.3, 1)
    lin = linearize_at_origin(p)
    h = 1e-7
    for j in range(3):
        v = np.zeros(3)
        v[j] = h
        col = np.array(vector_field(v, p)) / h
        np.testing.assert_allclose(col, lin.matrix[:, j], atol=1e-6)


def test_trajectory_reaches_limit_point(sub_case):
    portrait = to_phase_coords(sub_case.final_profile)
    report = limit_point_check(portrait)
    assert report.signs_ok
    assert abs(report.Y_end - report.Y_target) <= 1e-3
    assert abs(report.X_end) <= 1e-2
    assert abs(report.Z_end) <= 1e-2
    assert report.distance <= 1e-2


def test_eta_is_increasing(sub_case):
    portrait = to_phase_coords(sub_case.final_profile)
    assert np.all(np.diff(portrait.eta_values) > 0)


def test_cumulative_trapezoid_is_scipys(sub_case):
    from scipy.integrate import cumulative_trapezoid

    # bit for bit, on a profile's stored grid and on a random one
    sol = sub_case.final_profile
    rng = np.random.default_rng(7)
    samples = [
        (sol.f_values, sol.grid),
        (rng.normal(size=257), np.sort(rng.uniform(0.0, 3.0, 257))),
    ]
    for y, x in samples:
        np.testing.assert_array_equal(
            _cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0)
        )


def test_coordinate_identity(sub_case):
    portrait = to_phase_coords(sub_case.final_profile)
    assert coordinate_identity_residual(portrait) < 1e-12


def test_stable_manifold_ratio(sub_case):
    report = stable_manifold_ratio(sub_case.final_profile)
    p = sub_case.final_profile.params
    assert report.W_over_Z_predicted == pytest.approx(
        (p.m - 1.0) / (2.0 + p.m + p.q), rel=1e-15
    )
    assert report.W_over_Z_deviation <= 0.05
    # X is higher order: its share must shrink with depth
    assert abs(report.X_over_Z_end) < abs(report.X_over_Z_start)


def test_stable_manifold_requires_subcritical(solved):
    with pytest.raises(CaseError):
        stable_manifold_ratio(solved[(2.0, 0.5, 1)].final_profile)


@pytest.mark.parametrize("analysis", [to_phase_coords, stable_manifold_ratio])
def test_phase_analysis_needs_contact(no_contact, analysis):
    with pytest.raises(ProfileError, match="contact"):
        analysis(no_contact)
