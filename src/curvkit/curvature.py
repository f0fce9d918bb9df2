"""Kähler curvature tensors at a point.

A curvature tensor is a dense 4-index complex array ``R[i, j, k, l]``
(0-based in code, 1-based in the JSON interchange format) standing for
``R_{i jbar k lbar}``.  Two symmetry families are enforced:

* conjugation: ``conj(R[j, i, l, k]) = R[i, j, k, l]``,
* pair symmetries: ``R[i, j, k, l] = R[k, j, i, l] = R[i, l, k, j]``.

Construction symmetrizes by averaging over the full 8-element symmetry orbit
and assigns one value per orbit, so the symmetries hold exactly afterwards.
The module computes holomorphic sectional curvature, its Hermitian pair-basis
form, Ricci and scalar traces, curvature kernels, recovery from
difference-of-squares data, and graph-metric curvature models.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError, PreconditionError, ValidationError
from .hermform import (
    HermitianForm22,
    SquareDecomposition,
    pair_indices,
    signature,
)
from .quadric import Subspace, nullspace
from .rng import Rng

__all__ = [
    "KahlerCurvature",
    "HermitianMetric",
    "validate",
    "hsc",
    "hsc_numerator_form",
    "recover",
    "graph_curvature",
    "ricci",
    "ricci_definite",
    "scalar",
    "curvature_kernel",
    "kernel_propagation_check",
    "KernelPropagationReport",
    "random_kahler",
]

# the symmetry group acting on index quadruples, as position permutations:
# the image of q = (i, j, k, l) under p is (q[p[0]], q[p[1]], q[p[2]], q[p[3]]).
# The second four act together with complex conjugation.
_PLAIN = ((0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1))
_CONJ = ((1, 0, 3, 2), (1, 2, 3, 0), (3, 0, 1, 2), (3, 2, 1, 0))


def _at_images(a: np.ndarray, p) -> np.ndarray:
    """View of a 4-index array whose entry q is a's entry at q's image under p."""
    return a.transpose(np.argsort(p))


@lru_cache(maxsize=None)
def _orbits(n: int):
    """Flat-index orbit table: (plain, conj, real_mask) arrays, one row per
    orbit of the symmetry group on index quadruples.

    Row r holds the images of the orbit's least flat index under _PLAIN and
    _CONJ (so column 0 of `plain` is that index, the orbit's lexicographically
    least member), and rows are in increasing order of it.  An orbit is real
    when a plain image is also a conjugate one: its value must equal its own
    conjugate.
    """
    flat = np.arange(n**4, dtype=np.intp).reshape((n,) * 4)
    plain = np.stack([_at_images(flat, p).ravel() for p in _PLAIN], axis=1)
    conj = np.stack([_at_images(flat, p).ravel() for p in _CONJ], axis=1)
    least = plain[:, 0] == np.minimum(plain.min(axis=1), conj.min(axis=1))
    plain, conj = plain[least], conj[least]
    real_mask = (plain[:, :, None] == conj[:, None, :]).any(axis=(1, 2))
    return plain, conj, real_mask


def _symmetrize(raw: np.ndarray) -> np.ndarray:
    """Average over the symmetry orbit; one value is assigned per orbit so the
    symmetries hold exactly on the result."""
    n = raw.shape[0]
    plain, conj, real_mask = _orbits(n)
    flat = raw.ravel()
    vals = (flat[plain].sum(axis=1) + flat[conj].conj().sum(axis=1)) / 8.0
    vals = np.where(real_mask, vals.real + 0.0j, vals)
    out = np.empty(n**4, dtype=complex)
    out[conj.ravel()] = np.repeat(vals.conj(), 4)
    out[plain.ravel()] = np.repeat(vals, 4)
    return out.reshape(raw.shape)


class KahlerCurvature:
    """Curvature tensor with the Kähler symmetries enforced on construction."""

    __slots__ = ("n", "tensor")

    def __init__(self, tensor):
        t = np.asarray(tensor, dtype=complex)
        if t.ndim != 4 or len(set(t.shape)) != 1:
            raise InputError(f"curvature tensor must be n^4, got shape {t.shape}")
        if not np.all(np.isfinite(t.view(float))):
            raise InputError("curvature tensor contains non-finite entries")
        t = _symmetrize(t)
        t.setflags(write=False)
        self.n = t.shape[0]
        self.tensor = t

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, n, n, n), dtype=complex))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.tensor))) if self.n else 0.0

    def __repr__(self):
        return f"KahlerCurvature(n={self.n}, max_abs={self.max_abs():.3g})"


class HermitianMetric:
    """Hermitian positive-definite metric matrix g_{i jbar}."""

    __slots__ = ("n", "matrix", "_inverse")

    def __init__(self, matrix):
        g = np.asarray(matrix, dtype=complex)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise InputError(f"metric must be square, got {g.shape}")
        scale = np.linalg.norm(g)
        if np.linalg.norm(g - g.conj().T) > 1e-10 * max(scale, 1.0):
            raise InputError("metric is not Hermitian to 1e-10")
        g = (g + g.conj().T) / 2.0
        eig = np.linalg.eigvalsh(g)
        if eig[0] <= 1e-12 * max(np.abs(eig).max(), 1.0):
            raise InputError("metric is not positive definite")
        g.setflags(write=False)
        self.n = g.shape[0]
        self.matrix = g
        self._inverse = None

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=complex))

    def inverse(self) -> np.ndarray:
        if self._inverse is None:
            inv = np.linalg.inv(self.matrix)
            inv = (inv + inv.conj().T) / 2.0
            inv.setflags(write=False)
            self._inverse = inv
        return self._inverse

    def __repr__(self):
        return f"HermitianMetric(n={self.n})"


def _symmetry_residuals(raw: np.ndarray):
    """Worst violation of each symmetry family on a raw array."""
    families = (
        ("conjugation", _CONJ[0]),
        ("first-pair", _PLAIN[1]),
        ("second-pair", _PLAIN[2]),
    )
    worst = (0.0, None, None, None)
    for name, p in families:
        image = _at_images(raw, p)
        dev = np.abs(raw - (image.conj() if p in _CONJ else image))
        m = float(dev.max())
        if m > worst[0]:
            at = np.unravel_index(int(dev.argmax()), raw.shape)
            worst = (m, name, at, tuple(at[x] for x in p))
    return worst


def validate(raw, tol: float = 1e-10) -> KahlerCurvature:
    """Check the symmetry families on a raw array within tol * max|R| and
    return the (symmetrized) tensor; report the worst violation otherwise."""
    t = np.asarray(raw, dtype=complex)
    if t.ndim != 4 or len(set(t.shape)) != 1:
        raise InputError(f"curvature tensor must be n^4, got shape {t.shape}")
    scale = float(np.max(np.abs(t))) if t.size else 0.0
    resid, family, at, partner = _symmetry_residuals(t)
    if resid > tol * scale:
        one = tuple(int(x) + 1 for x in at)
        two = tuple(int(x) + 1 for x in partner)
        raise ValidationError(
            f"{family} symmetry violated: residual {resid:.3e} at {one} vs {two}"
            f" exceeds {tol:.1e} * max|R| = {tol * scale:.3e}",
            max_residual=resid,
            indices=(one, two),
        )
    return KahlerCurvature(t)


def hsc(curv: KahlerCurvature, metric: HermitianMetric | None, v) -> float:
    """Holomorphic sectional curvature of the complex line through v:
    (sum R_ijkl v_i conj(v_j) v_k conj(v_l)) / (sum g_ij g_kl v_i conj(v_j) ...).

    Scale invariant: hsc(R, g, c v) = hsc(R, g, v) for complex c != 0.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != curv.n:
        raise InputError(f"vector length {v.size} != dimension {curv.n}")
    if np.linalg.norm(v) == 0:
        raise InputError("holomorphic sectional curvature is undefined at v = 0")
    g = np.eye(curv.n, dtype=complex) if metric is None else metric.matrix
    vc = v.conj()
    num = np.einsum("ijkl,i,j,k,l->", curv.tensor, v, vc, v, vc)
    pairing = np.einsum("ij,i,j->", g, v, vc).real
    return float(num.real) / float(pairing**2)


def hsc_numerator_form(curv: KahlerCurvature) -> HermitianForm22:
    """Pair-basis Hermitian matrix of the sectional-curvature numerator.

    With H = w* A w the row pair couples to the conjugated monomials, so
    A[(ik),(jl)] = m_ik m_jl conj(R[i,j,k,l]) with m_ik = 1 if i = k else 2;
    evaluate() then reproduces sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l).
    """
    i, k = np.array(pair_indices(curv.n), dtype=np.intp).reshape(-1, 2).T
    m = np.where(i == k, 1.0, 2.0)
    weight = m[:, None] * m[None, :]
    # rows and columns run over the same pairs: row (i, k), column (j, l)
    z = curv.tensor[i[None, :], i[:, None], k[None, :], k[:, None]]
    # rounded as the scalar product (weight + 0j) * z is, signed zeros too
    a = np.empty(z.shape, dtype=complex)
    a.real = weight * z.real - 0.0 * z.imag
    a.imag = weight * z.imag + 0.0 * z.real
    return HermitianForm22(a)


def recover(dec: SquareDecomposition) -> KahlerCurvature:
    """Curvature tensor of a difference-of-squares sectional curvature:
    R[i,j,k,l] = sum_p f_p[i,k] conj(f_p[j,l]) - sum_p g_p[i,k] conj(g_p[j,l])."""
    n = dec.n
    t = np.zeros((n, n, n, n), dtype=complex)
    for sign, side in ((1.0, dec.pos), (-1.0, dec.neg)):
        if side:
            mats = np.array([q.matrix for q in side])
            t += sign * np.einsum("pik,pjl->ijkl", mats, mats.conj())
    return KahlerCurvature(t)


def graph_curvature(hessians, orientation: int) -> KahlerCurvature:
    """Curvature of a graph metric with the given second-derivative matrices:
    R[i,j,k,l] = orientation * sum_s F_s[i,k] conj(F_s[j,l]).

    orientation -1 is the submanifold-of-flat model; +1 the sum-of-squares
    positive model.
    """
    if orientation not in (1, -1):
        raise InputError("orientation must be +1 or -1")
    mats = [np.asarray(f, dtype=complex) for f in hessians]
    if not mats:
        raise InputError("at least one second-derivative matrix is required")
    n = mats[0].shape[0]
    for f in mats:
        if f.shape != (n, n):
            raise InputError("second-derivative matrices have mixed shapes")
        if np.linalg.norm(f - f.T) > 1e-10 * max(np.linalg.norm(f), 1.0):
            raise InputError("second-derivative matrix is not symmetric")
    stack = np.array([(f + f.T) / 2.0 for f in mats])
    t = float(orientation) * np.einsum("sik,sjl->ijkl", stack, stack.conj())
    return KahlerCurvature(t)


def ricci(curv: KahlerCurvature, metric: HermitianMetric | None = None) -> np.ndarray:
    """Ricci matrix Ric[i,j] = sum_{k,l} ginv[k,l] R[i,j,k,l] (trace over the
    last index pair against the inverse metric); Hermitian."""
    if metric is None:
        r = np.einsum("ijkk->ij", curv.tensor)
    else:
        r = np.einsum("lk,ijkl->ij", metric.inverse(), curv.tensor)
    return (r + r.conj().T) / 2.0


def ricci_definite(ric: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff every eigenvalue of the Hermitian matrix `ric` lies on one
    side of zero, beyond ``tol * spectral radius`` (fallback scale 1)."""
    eig = np.linalg.eigvalsh(ric)
    scale = float(np.max(np.abs(eig))) if eig.size else 0.0
    cutoff = tol * (scale if scale > 0 else 1.0)
    return bool(np.all(eig > cutoff) or np.all(eig < -cutoff))


def scalar(curv: KahlerCurvature, metric: HermitianMetric | None = None) -> float:
    """Scalar curvature: trace of the Ricci matrix against the inverse metric."""
    ric = ricci(curv, metric)
    if metric is None:
        return float(np.trace(ric).real)
    return float(np.trace(metric.inverse() @ ric).real)


def curvature_kernel(curv: KahlerCurvature, tol: float = 1e-9) -> Subspace:
    """Kernel subspace {v : sum_i v_i R[i,j,k,l] = 0 for all j,k,l}, computed
    by singular-value thresholding at tol * sigma_max.  The pointwise
    curvature-rank invariant is n minus this dimension."""
    n = curv.n
    stacked = curv.tensor.transpose(1, 2, 3, 0).reshape(n**3, n)
    return Subspace(nullspace(stacked, rtol=tol), n=n)


@dataclass(frozen=True)
class KernelPropagationReport:
    """Numerical check that a direction annihilating R[.,.,v,vbar] also
    annihilates R[.,.,.,vbar] when the sectional curvature is semi-definite."""

    residual_vv: float
    residual_v: float
    max_abs: float
    hypothesis_met: bool
    conclusion_met: bool
    signature: tuple


def kernel_propagation_check(
    curv: KahlerCurvature, v, tol: float = 1e-9
) -> KernelPropagationReport:
    """Report max |R[i,j,v,vbar]| and max |R[i,j,k,vbar]| for a unit direction v.

    Requires the sectional-curvature form to be semi-definite.  If the first
    residual is below tol * max|R| the second must stay below 10x the same
    threshold; a violation raises NumericalError.
    """
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != curv.n:
        raise InputError(f"vector length {v.size} != dimension {curv.n}")
    nv = np.linalg.norm(v)
    if nv == 0:
        raise InputError("direction must be nonzero")
    v = v / nv
    sig = signature(hsc_numerator_form(curv))
    if sig[0] > 0 and sig[1] > 0:
        raise PreconditionError(
            f"sectional curvature form is indefinite (signature {sig});"
            " the propagation statement requires semi-definiteness"
        )
    scale = curv.max_abs()
    res_vv = float(np.max(np.abs(np.einsum("ijkl,k,l->ij", curv.tensor, v, v.conj()))))
    res_v = float(np.max(np.abs(np.einsum("ijkl,l->ijk", curv.tensor, v.conj()))))
    hypothesis = res_vv <= tol * scale
    conclusion = res_v <= 10.0 * tol * scale
    if hypothesis and not conclusion:
        raise NumericalError(
            f"kernel propagation failed: |R(.,.,v,vbar)| = {res_vv:.3e} but"
            f" |R(.,.,.,vbar)| = {res_v:.3e} on a semi-definite tensor"
        )
    return KernelPropagationReport(res_vv, res_v, scale, hypothesis, conclusion, sig)


def random_kahler(n: int, rng: Rng) -> KahlerCurvature:
    """Random tensor with the symmetries enforced (Gaussian entries)."""
    return KahlerCurvature(rng.complex_normal((n, n, n, n)))
