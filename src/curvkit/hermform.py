"""Hermitian forms of real-valued (2,2)-bihomogeneous polynomials on C^n.

A polynomial ``H(v) = sum_{i,j,k,l} R_{ijkl} v_i conj(v_j) v_k conj(v_l)``
with real values is encoded as a Hermitian matrix ``A`` acting on the
unordered-pair monomial basis ``w_(ik) = v_i v_k`` for ``i <= k`` (lexicographic
order), so that ``H(v) = w* A w``.  The monomial vector carries no multiplicity
weights; all bookkeeping lives in ``A``.

Such a form splits into a difference of squares of holomorphic quadratic
forms, ``H = sum_p |f_p(v)|^2 - sum_p |g_p(v)|^2``, via the eigendecomposition
of ``A``; the number of terms per side of a minimal split is the pair of
positive/negative eigenvalue counts, and the decomposition length ``N`` is
their maximum.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "QuadraticForm",
    "HermitianForm22",
    "SquareDecomposition",
    "pair_indices",
    "pair_dim",
    "monomial_vector",
    "from_quadric_squares",
    "signature",
    "decompose",
    "dangelo_system",
    "pullback",
]


def pair_dim(n: int) -> int:
    """Number of unordered index pairs (i, k), i <= k, in dimension n."""
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple:
    """Lexicographically ordered unordered pairs (0-based)."""
    return tuple((i, k) for i in range(n) for k in range(i, n))


def _dim_from_pairs(d: int) -> int:
    n = int((np.sqrt(8 * d + 1) - 1) / 2 + 0.5)
    if pair_dim(n) != d:
        raise InputError(f"matrix size {d} is not a pair-basis dimension n(n+1)/2")
    return n


def monomial_vector(v: np.ndarray) -> np.ndarray:
    """Pair-basis monomial vector w with w_(ik) = v_i v_k, i <= k."""
    v = np.asarray(v, dtype=complex).ravel()
    n = v.size
    idx = pair_indices(n)
    return np.array([v[i] * v[k] for i, k in idx], dtype=complex)


class QuadraticForm:
    """Holomorphic quadratic form q(v) = sum_{i,k} F_ik v_i v_k (ordered sum).

    The coefficient matrix is symmetrized on construction, so the value of the
    form is preserved while F = F^T holds exactly.
    """

    __slots__ = ("n", "matrix")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"quadratic form matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InputError("quadratic form matrix contains non-finite entries")
        m = (m + m.T) / 2.0
        m.setflags(write=False)
        self.n = m.shape[0]
        self.matrix = m

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, n), dtype=complex))

    @classmethod
    def from_pair_coefficients(cls, n, coeffs):
        """Inverse of :meth:`pair_coefficients`."""
        coeffs = np.asarray(coeffs, dtype=complex).ravel()
        if coeffs.size != pair_dim(n):
            raise InputError("coefficient vector length does not match pair dimension")
        m = np.zeros((n, n), dtype=complex)
        for flat, (i, k) in enumerate(pair_indices(n)):
            if i == k:
                m[i, i] = coeffs[flat]
            else:
                m[i, k] = m[k, i] = coeffs[flat] / 2.0
        return cls(m)

    def pair_coefficients(self) -> np.ndarray:
        """Coefficients c with q(v) = sum_{i<=k} c_(ik) v_i v_k."""
        mult = np.array([1.0 if i == k else 2.0 for i, k in pair_indices(self.n)])
        flat = np.array([self.matrix[i, k] for i, k in pair_indices(self.n)])
        return mult * flat

    def __call__(self, v) -> complex:
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != self.n:
            raise InputError(f"vector length {v.size} != dimension {self.n}")
        return complex(v @ self.matrix @ v)

    def bilinear(self, u, v) -> complex:
        """Associated symmetric bilinear form B(u, v) = u^T F v."""
        u = np.asarray(u, dtype=complex).ravel()
        v = np.asarray(v, dtype=complex).ravel()
        return complex(u @ self.matrix @ v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.norm() <= tol

    def __repr__(self):
        return f"QuadraticForm(n={self.n}, norm={self.norm():.3g})"


class HermitianForm22:
    """Real-valued (2,2)-form as a Hermitian matrix on the pair basis.

    ``evaluate(v)`` returns ``w* A w`` with ``w`` the monomial vector of ``v``;
    the matrix is Hermitian-averaged on construction so the value is real up
    to roundoff, and the imaginary residue is discarded.
    """

    __slots__ = ("n", "matrix")

    def __init__(self, matrix, n=None):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError(f"pair-basis matrix must be square, got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InputError("pair-basis matrix contains non-finite entries")
        inferred = _dim_from_pairs(m.shape[0])
        if n is not None and n != inferred:
            raise InputError(f"matrix size {m.shape[0]} does not match n={n}")
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        self.n = inferred
        self.matrix = m

    @classmethod
    def zero(cls, n):
        d = pair_dim(n)
        return cls(np.zeros((d, d), dtype=complex))

    @property
    def pairs(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, v) -> float:
        v = np.asarray(v, dtype=complex).ravel()
        if v.size != self.n:
            raise InputError(f"vector length {v.size} != dimension {self.n}")
        w = monomial_vector(v)
        return float((w.conj() @ self.matrix @ w).real)

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    def __repr__(self):
        return f"HermitianForm22(n={self.n}, pairs={self.pairs})"


@dataclass(frozen=True)
class SquareDecomposition:
    """Difference-of-squares split H = sum |f_p|^2 - sum |g_p|^2.

    The two sides are stored unpadded; the decomposition length ``N`` is the
    longer side (conceptually the shorter one is padded with zero forms).
    """

    n: int
    pos: tuple = field(default=())
    neg: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(self.pos))
        object.__setattr__(self, "neg", tuple(self.neg))
        for q in self.pos + self.neg:
            if not isinstance(q, QuadraticForm):
                raise InputError("decomposition entries must be QuadraticForm")
            if q.n != self.n:
                raise InputError("decomposition mixes dimensions")

    @property
    def N(self) -> int:
        return max(len(self.pos), len(self.neg))

    def evaluate(self, v) -> float:
        s = sum(abs(q(v)) ** 2 for q in self.pos) - sum(abs(q(v)) ** 2 for q in self.neg)
        return float(s)

    def padded(self):
        """Both sides padded with zero forms to equal length N."""
        z = QuadraticForm.zero(self.n)
        k = self.N
        return (
            self.pos + (z,) * (k - len(self.pos)),
            self.neg + (z,) * (k - len(self.neg)),
        )

    def nonzero_pos(self, tol=None):
        return tuple(q for q in self.pos if not q.is_zero(self._zero_tol(tol)))

    def nonzero_neg(self, tol=None):
        return tuple(q for q in self.neg if not q.is_zero(self._zero_tol(tol)))

    def _zero_tol(self, tol):
        if tol is not None:
            return tol
        scale = max((q.norm() for q in self.pos + self.neg), default=0.0)
        return 1e-12 * max(scale, 1.0)

    def definite_side(self, tol=None):
        """'pos', 'neg', 'zero', or None for a genuinely indefinite split."""
        p = len(self.nonzero_pos(tol))
        m = len(self.nonzero_neg(tol))
        if p == 0 and m == 0:
            return "zero"
        if m == 0:
            return "pos"
        if p == 0:
            return "neg"
        return None


def from_quadric_squares(pos, neg) -> HermitianForm22:
    """Hermitian pair-basis matrix of sum |f_p(v)|^2 - sum |g_p(v)|^2."""
    forms = list(pos) + list(neg)
    if not forms:
        raise InputError("at least one quadratic form is required")
    n = forms[0].n
    if any(q.n != n for q in forms):
        raise InputError("quadratic forms have mixed dimensions")
    d = pair_dim(n)
    a = np.zeros((d, d), dtype=complex)
    for sign, side in ((1.0, pos), (-1.0, neg)):
        for q in side:
            b = q.pair_coefficients().conj()
            a += sign * np.outer(b, b.conj())
    return HermitianForm22(a)


def signature(form: HermitianForm22, tol: float = 1e-9):
    """Eigenvalue sign counts (n_plus, n_minus, n_zero).

    `tol` is relative to the spectral radius; eigenvalues within
    ``tol * max(|lambda|, fallback 1)`` of zero count as zero.
    """
    if tol < 0:
        raise InputError("tolerance must be nonnegative")
    eig = np.linalg.eigvalsh(form.matrix)
    scale = max(np.max(np.abs(eig)) if eig.size else 0.0, 0.0)
    cutoff = tol * (scale if scale > 0 else 1.0)
    n_plus = int(np.sum(eig > cutoff))
    n_minus = int(np.sum(eig < -cutoff))
    return n_plus, n_minus, eig.size - n_plus - n_minus


def decompose(form: HermitianForm22, tol: float = 1e-9) -> SquareDecomposition:
    """Difference-of-squares split from the Hermitian eigendecomposition.

    Each eigenpair (lambda, u) with |lambda| above ``tol * spectral radius``
    yields a quadratic form evaluating to ``sqrt(|lambda|) * (u* w)``; positive
    eigenvalues populate `pos`, negative ones `neg`.
    """
    try:
        eig, vec = np.linalg.eigh(form.matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"eigensolver failed on {form!r}: {exc}") from exc
    scale = np.max(np.abs(eig)) if eig.size else 0.0
    cutoff = tol * (scale if scale > 0 else 1.0)
    pos, neg = [], []
    # largest magnitude first on each side
    for j in reversed(range(eig.size)):
        if eig[j] > cutoff:
            coeffs = np.sqrt(eig[j]) * vec[:, j].conj()
            pos.append(QuadraticForm.from_pair_coefficients(form.n, coeffs))
    for j in range(eig.size):
        if eig[j] < -cutoff:
            coeffs = np.sqrt(-eig[j]) * vec[:, j].conj()
            neg.append(QuadraticForm.from_pair_coefficients(form.n, coeffs))
    return SquareDecomposition(form.n, tuple(pos), tuple(neg))


def dangelo_system(dec: SquareDecomposition, unitary) -> list:
    """The N holomorphic quadrics f_p - sum_j U_pj g_j.

    Every common zero of the returned system is a zero of the represented
    polynomial, for any unitary U.
    """
    u = np.asarray(unitary, dtype=complex)
    k = dec.N
    if u.shape != (k, k):
        raise InputError(f"unitary must be {k}x{k} for a length-{k} decomposition, got {u.shape}")
    if np.linalg.norm(u.conj().T @ u - np.eye(k)) > 1e-10:
        raise InputError("matrix is not unitary to tolerance 1e-10")
    pos, neg = dec.padded()
    out = []
    for p in range(k):
        m = pos[p].matrix - sum(u[p, j] * neg[j].matrix for j in range(k))
        out.append(QuadraticForm(m))
    return out


def _pair_change_of_basis(t: np.ndarray) -> np.ndarray:
    """Matrix S with w(Tc) = S w(c) on the pair bases, for an n x d matrix T:
    ``pair_dim(n)`` rows, ``pair_dim(d)`` columns.

    Entry ((i, k), (a, b)) is ``T[i, a] T[k, b] + T[i, b] T[k, a]`` for a != b
    and ``T[i, a] T[k, a]`` on the diagonal pairs."""
    n, d = t.shape
    i, k = np.array(pair_indices(n), dtype=np.intp).reshape(-1, 2).T[:, :, None]
    a, b = np.array(pair_indices(d), dtype=np.intp).reshape(-1, 2).T
    s = _complex_product(t[i, a], t[k, b])
    off = a != b
    s[:, off] += _complex_product(t[i, b[off]], t[k, a[off]])
    return s


def _complex_product(x, y):
    """Elementwise x * y from real parts, rounded as the scalar complex product
    is: numpy's vectorized complex multiply may fuse multiply-adds on some
    CPUs, which would make the result depend on the host."""
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def pullback(form: HermitianForm22, t) -> HermitianForm22:
    """Form of v -> H(Tv); a congruence on the pair basis, so for invertible T
    the signature (hence the decomposition length) is unchanged."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (form.n, form.n):
        raise InputError(f"change of basis must be {form.n}x{form.n}")
    s = _pair_change_of_basis(t)
    return HermitianForm22(s.conj().T @ form.matrix @ s)
