"""Tests for the flat C^m structures and the Maslov degree calculus."""

import math

import numpy as np
import pytest

from slaglab.errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    GradingError,
    NonTransverseError,
)
from slaglab.geometry import (
    AngleVector,
    GradedPointPair,
    LagrangianPlane,
    TangentFrame,
    characteristic_angles,
    degree_window_check,
    holomorphic_volume,
    lift_phase_path,
    liouville_form,
    maslov_degree,
    phase_of_frame,
    random_unitary,
    strip_area,
    symplectic_form,
)

E1 = np.array([1.0, 0.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0, 0.0], dtype=complex)


def test_symplectic_form_pairs_j():
    assert symplectic_form(E1, 1j * E1) == pytest.approx(1.0, abs=1e-15)


def test_symplectic_form_vanishes_on_real_plane():
    assert symplectic_form(E1, E2) == 0.0


def test_symplectic_form_antisymmetric_and_tamed():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        m = int(rng.integers(3, 6))
        u = rng.normal(size=m) + 1j * rng.normal(size=m)
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        assert symplectic_form(u, v) == -symplectic_form(v, u)
        assert symplectic_form(u, 1j * u) > 0.0


def test_symplectic_form_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        symplectic_form(E1, np.array([1.0, 0.0], dtype=complex))


def test_liouville_form_vanishes_on_real_plane():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.normal(size=3).astype(complex)
        v = rng.normal(size=3).astype(complex)
        assert liouville_form(p, v) == pytest.approx(0.0, abs=1e-15)


def test_liouville_form_vanishes_at_origin():
    assert liouville_form(np.zeros(3, complex), 1j * E1 + E2) == 0.0


def test_liouville_form_reference_value():
    # independent real-arithmetic expansion:
    # lambda(v) = 1/2 sum (Re p Im v - Im p Re v)
    assert liouville_form(E1, 1j * E1) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        oracle = 0.5 * float(np.sum(np.real(p) * np.imag(v) - np.imag(p) * np.real(v)))
        assert liouville_form(p, v) == pytest.approx(oracle, abs=1e-12)


def test_liouville_form_is_primitive_of_omega():
    # finite-difference exterior derivative of lambda against omega
    rng = np.random.default_rng(2)
    m = 3
    h = 1e-6
    for _ in range(25):
        p = rng.normal(size=m) + 1j * rng.normal(size=m)
        u = rng.normal(size=m) + 1j * rng.normal(size=m)
        v = rng.normal(size=m) + 1j * rng.normal(size=m)
        d_lambda = (
            liouville_form(p + h * u, v) - liouville_form(p - h * u, v)
        ) / (2 * h) - (
            liouville_form(p + h * v, u) - liouville_form(p - h * v, u)
        ) / (2 * h)
        assert d_lambda == pytest.approx(symplectic_form(u, v), abs=1e-6)


def test_holomorphic_volume_identity_frame():
    frame = TangentFrame(np.zeros(3, complex), np.eye(3, dtype=complex))
    assert holomorphic_volume(frame) == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_holomorphic_volume_diagonal_frame():
    phis = np.array([0.3, 1.1, 0.9])
    frame = TangentFrame(np.zeros(3, complex), np.diag(np.exp(1j * phis)))
    expected = np.exp(1j * np.sum(phis))
    assert holomorphic_volume(frame) == pytest.approx(expected, abs=1e-14)


def test_holomorphic_volume_unitary_frame_has_unit_modulus():
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = random_unitary(4, rng)
        vol = holomorphic_volume(TangentFrame(np.zeros(4, complex), u))
        # Gram-matrix cross-check: |det U|^2 = det(U^H U) = 1
        gram_det = np.linalg.det(u.conj().T @ u)
        assert abs(vol) == pytest.approx(math.sqrt(abs(gram_det)), abs=1e-10)
        assert abs(abs(vol) - 1.0) < 1e-10


def test_holomorphic_volume_degenerate_frame():
    cols = np.eye(3, dtype=complex)
    cols[:, 2] = cols[:, 0]
    with pytest.raises(DegenerateFrameError):
        holomorphic_volume(TangentFrame(np.zeros(3, complex), cols))


def test_phase_of_frame_identity_and_diagonal():
    frame = TangentFrame(np.zeros(3, complex), np.eye(3, dtype=complex))
    assert phase_of_frame(frame, 0.0) == pytest.approx(0.0, abs=1e-15)
    phis = np.array([0.9, 1.2, 1.0415926535897932])
    diag = TangentFrame(np.zeros(3, complex), np.diag(np.exp(1j * phis)))
    total = float(np.sum(phis))
    assert phase_of_frame(diag, total) == pytest.approx(total, abs=1e-12)


def test_phase_of_frame_matches_determinant_argument():
    rng = np.random.default_rng(4)
    for _ in range(50):
        u = random_unitary(3, rng)
        frame = TangentFrame(np.zeros(3, complex), u)
        theta = phase_of_frame(frame, 0.0)
        expected = float(np.angle(np.linalg.det(u)))
        delta = (theta - expected) % (2 * np.pi)
        assert min(delta, 2 * np.pi - delta) < 1e-12


def test_phase_of_frame_rejects_non_lagrangian():
    cols = np.eye(3, dtype=complex)
    cols[:, 1] = (E1 * 1j + E2) / np.sqrt(2)  # omega(e1, col) = 1/sqrt(2)
    with pytest.raises(DegenerateFrameError):
        phase_of_frame(TangentFrame(np.zeros(3, complex), cols), 0.0)


def test_lift_phase_path_unwraps():
    raw = np.linspace(0.0, 4.0 * np.pi, 200) % (2.0 * np.pi)
    lifted = lift_phase_path(raw, 0.0)
    assert lifted[-1] == pytest.approx(4.0 * np.pi, abs=1e-12)
    with pytest.raises(GradingError):
        lift_phase_path([0.0, 2.0], 0.0)  # step >= pi/2


def _angles_oracle(plane_a, plane_b):
    """Independent route: W W^T = X + iY with X, Y commuting real symmetric;
    diagonalize X and read Y in the same eigenbasis."""
    w = plane_a.unitary.conj().T @ plane_b.unitary
    s = w @ w.T
    x, y = np.real(s), np.imag(s)
    # jointly diagonalize the commuting pair via a generic combination
    evals, vecs = np.linalg.eigh(x + 0.618033 * (y + y.T) / 2)
    xs = np.diag(vecs.T @ x @ vecs)
    ys = np.diag(vecs.T @ y @ vecs)
    two_phi = np.arctan2(ys, xs)
    two_phi = np.where(two_phi <= 0, two_phi + 2 * np.pi, two_phi)
    return np.sort(two_phi / 2.0)


def test_characteristic_angles_diagonal_model():
    plane_a = LagrangianPlane.real_plane(3)
    plane_b = LagrangianPlane.from_angles([np.pi / 3] * 3)
    angles = characteristic_angles(plane_a, plane_b)
    np.testing.assert_allclose(angles.phis, np.pi / 3, atol=1e-12)


def test_characteristic_angles_simultaneous_rotation_invariance():
    rng = np.random.default_rng(5)
    phis = np.array([0.4, 1.1, 2.2])
    for _ in range(20):
        v = random_unitary(3, rng)
        plane_a = LagrangianPlane(v)
        plane_b = LagrangianPlane(v @ np.diag(np.exp(1j * phis)))
        angles = characteristic_angles(plane_a, plane_b)
        np.testing.assert_allclose(angles.phis, np.sort(phis), atol=1e-9)


def test_characteristic_angles_against_oracle():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 50:
        plane_a = LagrangianPlane(random_unitary(4, rng))
        plane_b = LagrangianPlane(random_unitary(4, rng))
        try:
            angles = characteristic_angles(plane_a, plane_b)
        except NonTransverseError:
            continue
        oracle = _angles_oracle(plane_a, plane_b)
        np.testing.assert_allclose(angles.phis, oracle, atol=1e-9)
        checked += 1


def test_characteristic_angles_rejects_non_transverse():
    plane = LagrangianPlane.real_plane(3)
    with pytest.raises(NonTransverseError):
        characteristic_angles(plane, plane)


def test_plane_representatives_identified_up_to_orthogonal():
    rng = np.random.default_rng(8)
    u = random_unitary(3, rng)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    assert LagrangianPlane(u).same_plane_as(LagrangianPlane(u @ q))
    assert not LagrangianPlane(u).same_plane_as(
        LagrangianPlane(u @ np.diag(np.exp(1j * np.array([0.4, 0.1, -0.2]))))
    )


def test_maslov_degree_sphere_pair_golden():
    # the transverse sphere pair: angles summing to pi, phases 0 and pi
    angles = AngleVector(np.array([np.pi / 4, np.pi / 4, np.pi / 2]))
    pair = GradedPointPair(theta_l=0.0, theta_lp=np.pi)
    assert maslov_degree(angles, pair) == 0


def test_maslov_degree_complement_rule():
    rng = np.random.default_rng(9)
    for _ in range(100):
        m = int(rng.integers(3, 6))
        plane_a = LagrangianPlane(random_unitary(m, rng))
        plane_b = LagrangianPlane(random_unitary(m, rng))
        try:
            angles = characteristic_angles(plane_a, plane_b)
        except NonTransverseError:
            continue
        n = int(rng.integers(-3, 4))
        theta_l = float(rng.uniform(-4, 4))
        theta_lp = theta_l + angles.total - n * np.pi
        mu = maslov_degree(angles, GradedPointPair(theta_l, theta_lp))
        assert mu == n
        swapped = characteristic_angles(plane_b, plane_a)
        mu_swap = maslov_degree(swapped, GradedPointPair(theta_lp, theta_l))
        assert mu + mu_swap == m


def test_maslov_degree_shift_rule():
    angles = AngleVector(np.array([0.7, 1.1, 1.3415926535897931]))
    base = GradedPointPair(0.0, angles.total)
    shifted = GradedPointPair(0.0, angles.total + np.pi)
    assert maslov_degree(angles, shifted) == maslov_degree(angles, base) - 1


def test_maslov_degree_rejects_inconsistent_grading():
    angles = AngleVector(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(GradingError):
        maslov_degree(angles, GradedPointPair(0.0, 0.3))


def test_degree_window_special_lagrangian():
    pair = GradedPointPair(0.0, 0.0)
    assert degree_window_check(pair, 2, 0.0, 3)
    assert not degree_window_check(pair, 0, 0.0, 3)
    assert not degree_window_check(pair, 3, 0.0, 3)


def test_degree_window_expander_strictness():
    pair = GradedPointPair(0.0, 0.0, 0.0, 0.0)
    assert not degree_window_check(pair, 0, 1.0, 3)  # 0 < 0 fails


def test_degree_window_expander_true_case():
    # alpha = 1, f_L' - f_L = pi/4: window (1/2, 3 + 1/2) contains mu = 1
    pair = GradedPointPair(0.0, -np.pi / 2, 0.0, np.pi / 4)
    assert degree_window_check(pair, 1, 1.0, 3)


def test_degree_window_rejects_inconsistent_potentials():
    pair = GradedPointPair(0.0, 1.0, 0.0, 5.0)  # f_L' != -theta_L'/(2 alpha)
    with pytest.raises(GradingError):
        degree_window_check(pair, 1, 1.0, 3)


def test_strip_area_pattern():
    pair_p = GradedPointPair(0.0, 0.0, f_l=0.0, f_lp=0.0)
    pair_q = GradedPointPair(0.0, 0.0, f_l=2.5, f_lp=0.0)
    assert strip_area(pair_p, pair_q) == pytest.approx(2.5)
    assert strip_area(pair_p, pair_p) == 0.0


def test_strip_area_antisymmetric_under_role_swap():
    rng = np.random.default_rng(10)
    for _ in range(100):
        fl_p, fl_q, flp_p, flp_q = rng.normal(size=4)
        direct = strip_area(
            GradedPointPair(0, 0, fl_p, flp_p), GradedPointPair(0, 0, fl_q, flp_q)
        )
        swapped = strip_area(
            GradedPointPair(0, 0, flp_p, fl_p), GradedPointPair(0, 0, flp_q, fl_q)
        )
        oracle = (fl_q - fl_p) + (flp_p - flp_q)
        assert direct == pytest.approx(oracle, abs=1e-12)
        assert swapped == pytest.approx(-direct, abs=1e-12)


def test_angle_vector_validation():
    with pytest.raises(GradingError):
        AngleVector(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(GradingError):
        AngleVector(np.array([np.pi, 1.0, 1.0]))
