"""Flat Kaehler structures on C^m and the grading calculus of Lagrangian planes.

C^m carries the standard symplectic form omega, metric g, complex structure J,
holomorphic volume form Omega = dz_1 ^ ... ^ dz_m, and the Liouville primitive

    lambda = -1/2 Im(z_1 dzbar_1 + ... + z_m dzbar_m),    d(lambda) = omega.

A Lagrangian plane is stored as a unitary matrix U with plane = U . R^m; two
representatives describe the same plane exactly when U1^dagger U2 is real
orthogonal.  A transverse pair of planes is simultaneously diagonalized into
the model pair (R^m, diag(e^{i phi_k}) R^m) by the eigenvalues e^{2 i phi_k}
of W W^T, W = U_A^dagger U_B; the phi_k in (0, pi) are the characteristic
angles of the pair.  Together with phase lifts theta they produce the integer
Maslov degree of a graded intersection point,

    mu = (phi_1 + ... + phi_m + theta_L - theta_L') / pi,

which always lies strictly between (theta_L - theta_L')/pi and the same + m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFrameError,
    DimensionMismatchError,
    GradingError,
    NonTransverseError,
)

LAGRANGIAN_TOL = 1e-8
TRANSVERSALITY_TOL = 1e-8
DEGREE_INT_TOL = 1e-6
POTENTIAL_CONSISTENCY_TOL = 1e-6


def _as_complex_vector(v, m=None):
    v = np.asarray(v, dtype=complex).reshape(-1)
    if m is not None and v.shape[0] != m:
        raise DimensionMismatchError(
            f"expected a vector of length {m}, got {v.shape[0]}"
        )
    return v


def symplectic_form(u, v) -> float:
    """omega(u, v) = sum_j Im(conj(u_j) v_j) for tangent vectors of C^m."""
    u = _as_complex_vector(u)
    v = _as_complex_vector(v, m=u.shape[0])
    return float(np.imag(np.vdot(u, v)))


def liouville_form(p, v) -> float:
    """Evaluate lambda = -1/2 Im(sum_j z_j dzbar_j) at point p on vector v.

    Satisfies d(lambda) = omega and lambda = (1/2) omega(p, .); it vanishes on
    any Lagrangian cone direction, e.g. along the real plane R^m.
    """
    z = _as_complex_vector(p)
    v = _as_complex_vector(v, m=z.shape[0])
    return float(-0.5 * np.imag(np.sum(z * np.conj(v))))


@dataclass(frozen=True)
class TangentFrame:
    """m vectors spanning a real m-plane in C^m, stored as matrix columns."""

    base: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        base = _as_complex_vector(self.base)
        vectors = np.asarray(self.vectors, dtype=complex)
        if vectors.shape != (base.shape[0], base.shape[0]):
            raise DimensionMismatchError("frame must consist of m vectors in C^m")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vectors", vectors)

    @property
    def m(self) -> int:
        return self.base.shape[0]

    def max_omega_residual(self) -> float:
        """Largest |omega(v_i, v_j)| over normalized frame vectors."""
        norms = np.linalg.norm(self.vectors, axis=0)
        if np.min(norms) == 0.0:
            raise DegenerateFrameError("frame contains a zero vector")
        cols = self.vectors / norms
        gram = cols.conj().T @ cols
        return float(np.max(np.abs(np.imag(gram))))

    def orthonormalized(self) -> "TangentFrame":
        """Gram-Schmidt in the real metric g = Re <.,.>.

        Real coefficients keep the real span and the orientation, so the
        phase of the complex determinant is unchanged.
        """
        cols = self.vectors.copy()
        m = self.m
        for i in range(m):
            v = cols[:, i]
            for j in range(i):
                v = v - np.real(np.vdot(cols[:, j], v)) * cols[:, j]
            norm = np.sqrt(np.real(np.vdot(v, v)))
            if norm < 1e-13 * max(1.0, float(np.linalg.norm(self.vectors[:, i]))):
                raise DegenerateFrameError("frame vectors are real-linearly dependent")
            cols[:, i] = v / norm
        return TangentFrame(self.base, cols)


def holomorphic_volume(frame: TangentFrame) -> complex:
    """Omega = dz_1 ^ ... ^ dz_m evaluated on the frame (complex determinant).

    For a unitary frame the modulus is 1.  Raises DegenerateFrameError when
    the columns are complex-rank deficient.
    """
    vectors = frame.vectors if isinstance(frame, TangentFrame) else np.asarray(frame, complex)
    sign, logdet = np.linalg.slogdet(vectors)
    if sign == 0 or not np.isfinite(logdet):
        raise DegenerateFrameError("frame has rank < m, volume form degenerates")
    svals = np.linalg.svd(vectors, compute_uv=False)
    if svals[-1] < 1e-12 * svals[0]:
        raise DegenerateFrameError("frame is numerically degenerate")
    return complex(sign * np.exp(logdet))


def nearest_branch(theta: float, hint: float) -> float:
    """Shift theta by a multiple of 2 pi to land nearest the hint."""
    return theta + 2.0 * np.pi * np.round((hint - theta) / (2.0 * np.pi))


def phase_of_frame(frame: TangentFrame, branch_hint: float = 0.0) -> float:
    """Phase theta with e^{i theta} = Omega(frame)/|Omega(frame)|.

    The frame must span a Lagrangian plane (pairwise omega below 1e-8 after
    normalization).  The lift is pinned to the branch nearest branch_hint.
    """
    residual = frame.max_omega_residual()
    if residual > LAGRANGIAN_TOL:
        raise DegenerateFrameError(
            f"frame is not Lagrangian: max |omega(v_i, v_j)| = {residual:.3e}"
        )
    vol = holomorphic_volume(frame)
    return nearest_branch(float(np.angle(vol)), branch_hint)


def lift_phase_path(raw_phases, start_hint: float = 0.0, max_step: float = 0.5 * np.pi):
    """Lift a sequence of phases (defined mod 2 pi) to a continuous path.

    Stepwise nearest-branch continuation; raises GradingError if consecutive
    lifted values jump by max_step or more, which signals an under-resolved
    path.
    """
    raw = np.asarray(raw_phases, dtype=float)
    lifted = np.empty_like(raw)
    prev = start_hint
    for i, th in enumerate(raw):
        cur = nearest_branch(float(th), prev)
        if i > 0 and abs(cur - prev) >= max_step:
            raise GradingError(
                f"phase step {abs(cur - prev):.3f} at index {i} exceeds "
                f"{max_step:.3f}; refine the path"
            )
        lifted[i] = cur
        prev = cur
    return lifted


@dataclass(frozen=True)
class LagrangianPlane:
    """Lagrangian plane U . R^m for a unitary matrix U."""

    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionMismatchError("plane representative must be square")
        gram = u.conj().T @ u
        defect = float(np.max(np.abs(gram - np.eye(u.shape[0]))))
        if defect > 1e-10:
            raise DimensionMismatchError(
                f"plane representative is not unitary: |U^H U - I| = {defect:.3e}"
            )
        object.__setattr__(self, "unitary", u)

    @property
    def m(self) -> int:
        return self.unitary.shape[0]

    @classmethod
    def real_plane(cls, m: int) -> "LagrangianPlane":
        return cls(np.eye(m, dtype=complex))

    @classmethod
    def from_angles(cls, phis) -> "LagrangianPlane":
        phis = np.asarray(phis, dtype=float)
        return cls(np.diag(np.exp(1j * phis)))

    def rotated(self, v) -> "LagrangianPlane":
        return LagrangianPlane(np.asarray(v, complex) @ self.unitary)

    def same_plane_as(self, other: "LagrangianPlane", tol: float = 1e-9) -> bool:
        """True when the representatives differ by a real orthogonal matrix."""
        w = self.unitary.conj().T @ other.unitary
        if np.max(np.abs(np.imag(w))) > tol:
            return False
        r = np.real(w)
        return bool(np.max(np.abs(r.T @ r - np.eye(self.m))) <= 10 * tol)

    def frame(self, base=None) -> TangentFrame:
        base = np.zeros(self.m, dtype=complex) if base is None else base
        return TangentFrame(base, self.unitary.copy())


@dataclass(frozen=True)
class AngleVector:
    """Characteristic angles phi_1 <= ... <= phi_m, each in (0, pi)."""

    phis: np.ndarray

    def __post_init__(self):
        phis = np.asarray(self.phis, dtype=float).reshape(-1)
        if np.any(phis <= 0.0) or np.any(phis >= np.pi):
            raise GradingError("characteristic angles must lie strictly in (0, pi)")
        object.__setattr__(self, "phis", phis)

    @property
    def m(self) -> int:
        return self.phis.shape[0]

    @property
    def total(self) -> float:
        return float(np.sum(self.phis))


@dataclass(frozen=True)
class GradedPointPair:
    """Phases and potentials of two graded Lagrangians at one point.

    Phases are lifts (not reduced mod 2 pi); potentials carry area units.
    """

    theta_l: float
    theta_lp: float
    f_l: float = 0.0
    f_lp: float = 0.0


def characteristic_angles(plane_a: LagrangianPlane, plane_b: LagrangianPlane) -> AngleVector:
    """Characteristic angles of a transverse plane pair, sorted ascending.

    Computed from the eigenvalues e^{2 i phi_k} of W W^T with
    W = U_A^dagger U_B.  The result does not depend on the choice of unitary
    representatives and is invariant under a simultaneous unitary rotation of
    both planes.  Raises NonTransverseError when any angle comes within
    1e-8 of 0 or pi.
    """
    if plane_a.m != plane_b.m:
        raise DimensionMismatchError("planes live in different dimensions")
    w = plane_a.unitary.conj().T @ plane_b.unitary
    s = w @ w.T
    eigvals = np.linalg.eigvals(s)
    # eigenvalues of a unitary symmetric matrix lie on the unit circle
    two_phi = np.angle(eigvals)
    two_phi = np.where(two_phi <= 0.0, two_phi + 2.0 * np.pi, two_phi)
    phis = np.sort(0.5 * two_phi)
    margin = float(min(np.min(phis), np.pi - np.max(phis)))
    if margin < TRANSVERSALITY_TOL:
        raise NonTransverseError(
            f"planes are not transverse: angle within {margin:.3e} of 0 or pi"
        )
    return AngleVector(phis)


def maslov_degree(angles: AngleVector, pair: GradedPointPair) -> int:
    """Degree mu = (sum phi_k + theta_L - theta_L')/pi of a graded point.

    The combination must be within 1e-6 of an integer, else the grading data
    is inconsistent and GradingError is raised.  The result always satisfies
    the strict window (theta_L - theta_L')/pi < mu < same + m.
    """
    raw = (angles.total + pair.theta_l - pair.theta_lp) / np.pi
    mu = int(np.round(raw))
    if abs(raw - mu) > DEGREE_INT_TOL:
        raise GradingError(
            f"(sum phi + theta_L - theta_L')/pi = {raw:.9f} is not an integer; "
            "phases are inconsistent with the plane pair"
        )
    lower = (pair.theta_l - pair.theta_lp) / np.pi
    if not (lower < mu < lower + angles.m):
        raise GradingError("degree fell outside its strict window; invalid input")
    return mu


def degree_window_check(pair: GradedPointPair, mu: int, alpha: float, m: int) -> bool:
    """Strict degree windows for special-Lagrangian and expander pairs.

    alpha == 0: both phases are treated as zero (special Lagrangian pair) and
    the check is 0 < mu < m.  alpha > 0: potentials must satisfy the soliton
    identity f = -theta / (2 alpha) within 1e-6, and the check is

        (2 alpha/pi) (f_L' - f_L)  <  mu  <  (2 alpha/pi) (f_L' - f_L) + m,

    both inequalities strict: the window (theta_L - theta_L')/pi of mu.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        return 0 < mu < m
    for theta, f, label in (
        (pair.theta_l, pair.f_l, "L"),
        (pair.theta_lp, pair.f_lp, "L'"),
    ):
        expected = -theta / (2.0 * alpha)
        if abs(f - expected) > POTENTIAL_CONSISTENCY_TOL * max(1.0, abs(f)):
            raise GradingError(
                f"potential of {label} violates f = -theta/(2 alpha): "
                f"f = {f:.9g}, -theta/(2 alpha) = {expected:.9g}"
            )
    lower = 2.0 * alpha / np.pi * (pair.f_lp - pair.f_l)
    return lower < mu < lower + m


def strip_area(pair_p: GradedPointPair, pair_q: GradedPointPair) -> float:
    """Area of a holomorphic strip between corners p, q from the potentials:

        f_L(q) - f_L(p) + f_L'(p) - f_L'(q).
    """
    return (pair_q.f_l - pair_p.f_l) + (pair_p.f_lp - pair_q.f_lp)


@dataclass(frozen=True)
class LagrangianSample:
    """A pointwise verification record: point, orthonormal tangent frame,
    phase value, and potential value."""

    point: np.ndarray
    frame: TangentFrame
    theta: float
    potential: float

    @property
    def m(self) -> int:
        return self.frame.m

    def omega_residual(self) -> float:
        return self.frame.max_omega_residual()

    def im_volume_residual(self) -> float:
        """|Im Omega(frame)| for the orthonormal frame; zero on special
        Lagrangian samples."""
        return abs(float(np.imag(holomorphic_volume(self.frame))))


def random_unitary(m: int, rng) -> np.ndarray:
    """Haar-ish unitary from QR of a complex Gaussian matrix."""
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
