"""Complex quadrics in C^n: rank, kernels, Takagi normal form, isotropic
subspaces, subspace intersection arithmetic, and the sharp shared-subspace
quadric family.

A quadric is a :class:`~curvkit.hermform.QuadraticForm`; its kernel is the
null space of the coefficient matrix and its rank the numerical matrix rank.
A subspace is held as a matrix with orthonormal columns.
"""

import numpy as np

from .errors import InputError, NumericalError
from .hermform import QuadraticForm
from .rng import Rng

__all__ = [
    "Subspace",
    "nullspace",
    "rank_and_kernel",
    "takagi",
    "isotropic_bound",
    "max_isotropic",
    "vanishes_on",
    "intersect",
    "common_kernel",
    "sharp_family",
    "random_quadrics_on",
    "random_symmetric_with_rank",
]


class Subspace:
    """Linear subspace of C^n held as an n x d orthonormal basis matrix."""

    __slots__ = ("n", "basis")

    def __init__(self, basis, n=None):
        b = np.asarray(basis, dtype=complex)
        if b.ndim != 2:
            raise InputError(f"basis must be a 2-d array, got shape {b.shape}")
        if n is not None and b.shape[0] != n:
            raise InputError(f"basis has ambient dimension {b.shape[0]}, expected {n}")
        if b.shape[1] > b.shape[0]:
            raise InputError("subspace dimension exceeds ambient dimension")
        d = b.shape[1]
        if d and np.linalg.norm(b.conj().T @ b - np.eye(d)) > 1e-10:
            raise InputError("basis columns are not orthonormal to 1e-10")
        b = b.copy()
        b.setflags(write=False)
        self.n = b.shape[0]
        self.basis = b

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n):
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def trivial(cls, n):
        return cls(np.zeros((n, 0), dtype=complex))

    @classmethod
    def from_span(cls, vectors, n=None, rtol=1e-9):
        """Orthonormalize a spanning set (columns) via SVD."""
        m = np.asarray(vectors, dtype=complex)
        if m.ndim == 1:
            m = m[:, None]
        if m.shape[1] == 0:
            return cls(m, n=n)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        rank = int(np.sum(s > rtol * (s[0] if s.size else 1.0)))
        return cls(u[:, :rank], n=n)

    def contains(self, v, tol=1e-9) -> bool:
        v = np.asarray(v, dtype=complex).ravel()
        nv = np.linalg.norm(v)
        if nv == 0:
            return True
        resid = v - self.basis @ (self.basis.conj().T @ v)
        return np.linalg.norm(resid) <= tol * nv

    def random_element(self, rng: Rng) -> np.ndarray:
        """Random unit vector in the subspace (seeded)."""
        if self.dim == 0:
            raise InputError("the trivial subspace has no unit vectors")
        c = rng.complex_normal(self.dim)
        v = self.basis @ c
        return v / np.linalg.norm(v)

    def __repr__(self):
        return f"Subspace(n={self.n}, dim={self.dim})"


def nullspace(a: np.ndarray, rtol: float = 1e-9, floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the null space; singular values below
    rtol * max(sigma_max, floor) count as zero.  A positive `floor` sets the
    natural scale of the matrix when it may be numerically zero overall.

    A tall input (rows >= cols) gets a thin SVD, whose ``vh`` is already the
    full cols x cols matrix, so the rows x rows left factor is never formed;
    a wide input needs the full ``vh`` to reach the directions past its rank.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cutoff = rtol * max(s[0] if s.size else 0.0, floor)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def rank_and_kernel(q: QuadraticForm, tol: float = 1e-9):
    """Numerical rank of the coefficient matrix and its kernel subspace."""
    ker = nullspace(q.matrix, rtol=tol)
    return q.n - ker.shape[1], Subspace(ker, n=q.n)


def _symmetric_unitary_root(z: np.ndarray) -> np.ndarray:
    """Symmetric C with C @ C = Z, for a symmetric unitary Z.

    Z = X + iY with X, Y real symmetric, and Z conj(Z) = I makes them commute,
    so one real orthogonal O diagonalizes Z: with lambda = diag(O^T Z O) the
    root is O diag(sqrt(lambda)) O^T, symmetric because O is real.  O is the
    eigenbasis of Re(e^{-i phi} Z), whose eigenvalues cos(theta_j - phi) for
    lambda_j = e^{i theta_j} coincide for distinct lambda_a, lambda_b only
    when phi is their angle midpoint (theta_a + theta_b)/2 mod pi.  So phi is
    put in the middle of the widest gap between those midpoints: the eigh is
    then well conditioned wherever it has to tell two lambdas apart, and the
    eigenvectors of nearly equal lambdas may mix at a cost of their distance.
    Two eigensolver calls, no iteration.
    """
    if z.shape[0] == 1:
        return np.sqrt(z)
    theta = np.angle(np.linalg.eigvals(z))
    mid = np.sort(((theta[:, None] + theta[None, :]) / 2.0).ravel() % np.pi)
    gaps = np.diff(mid, append=mid[0] + np.pi)
    phi = mid[gaps.argmax()] + gaps.max() / 2.0
    _, o = np.linalg.eigh((np.exp(-1j * phi) * z).real)
    lam = np.sum(o * (z @ o), axis=0)
    return (o * np.sqrt(lam)) @ o.T


def takagi(q: QuadraticForm):
    """Takagi factorization F = W diag(s) W^T, W unitary, s >= 0 descending.

    From the SVD F = U diag(s) V^*: on each group of equal singular values the
    block Z of V^T U is symmetric and unitary, and W = conj(V) C with C the
    blockwise symmetric root C @ C = Z (:func:`_symmetric_unitary_root`, two
    eigensolver calls, no iteration); on the zero group C = I, since the
    factor is unconstrained there.  The contract is the factorization residual,
    checked at 1e-9 * ||F||.
    """
    f = q.matrix
    n = q.n
    u, s, vh = np.linalg.svd(f)
    v = vh.conj().T
    phase = u.T @ v  # unitary, ~block diagonal over singular value groups
    scale = max(float(s[0]) if n else 0.0, 1.0)
    groups, start = [], 0
    for i in range(1, n):
        if s[start] - s[i] > 1e-8 * scale:
            groups.append(range(start, i))
            start = i
    if n:
        groups.append(range(start, n))
    corr = np.zeros((n, n), dtype=complex)
    for g in groups:
        g = list(g)
        if s[g[0]] <= 1e-12 * scale:
            # zero block: the factor is unconstrained there
            corr[np.ix_(g, g)] = np.eye(len(g))
        else:
            zb = phase[np.ix_(g, g)]
            corr[np.ix_(g, g)] = _symmetric_unitary_root((zb + zb.T) / 2.0)
    w = v.conj() @ corr
    fnorm = np.linalg.norm(f)
    resid = np.linalg.norm(w @ np.diag(s) @ w.T - f)
    if resid > 1e-9 * max(fnorm, 1.0):
        raise NumericalError(f"Takagi residual {resid:.3e} exceeds 1e-9 * ||F||")
    return w, s


def isotropic_bound(n: int, r: int) -> int:
    """Largest dimension of a linear subspace inside a rank-r quadric in C^n:
    (n - r) + floor(r / 2)."""
    if not 0 <= r <= n:
        raise InputError(f"rank must satisfy 0 <= r <= n, got r={r}, n={n}")
    return (n - r) + r // 2


def max_isotropic(q: QuadraticForm, tol: float = 1e-9) -> Subspace:
    """A subspace of the maximal dimension (n - r) + floor(r/2) on which the
    quadric vanishes identically.

    In the conjugated Takagi frame u_a = conj(W) e_a the quadric is diagonal,
    q(sum c_a u_a) = sum s_a c_a^2, so the kernel columns (s_a ~ 0) plus the
    pairings u_{2j}/sqrt(s_{2j}) + i u_{2j+1}/sqrt(s_{2j+1}) span a totally
    isotropic subspace.
    """
    w, s = takagi(q)
    n = q.n
    scale = float(s[0]) if n else 0.0
    r = int(np.sum(s > tol * (scale if scale > 0 else 1.0)))
    frame = w.conj()
    cols = []
    for j in range(r // 2):
        x = frame[:, 2 * j] / np.sqrt(s[2 * j]) + 1j * frame[:, 2 * j + 1] / np.sqrt(s[2 * j + 1])
        cols.append(x / np.linalg.norm(x))
    for a in range(r, n):
        cols.append(frame[:, a])
    basis = np.array(cols).T if cols else np.zeros((n, 0), dtype=complex)
    return Subspace(basis, n=n)


def vanishes_on(q: QuadraticForm, sub: Subspace, tol: float = 1e-9) -> bool:
    """True iff the quadric vanishes identically on the subspace:
    ||B^T F B|| <= tol * max(||F||, 1) (equivalent by polarization)."""
    if q.n != sub.n:
        raise InputError("quadric and subspace have different ambient dimensions")
    b = sub.basis
    resid = np.linalg.norm(b.T @ q.matrix @ b)
    return resid <= tol * max(q.norm(), 1.0)


def intersect(subspaces, rtol: float = 1e-9) -> Subspace:
    """Intersection of subspaces via the null space of stacked complement
    projectors; the dimension satisfies dim >= sum dims - (N-1) n."""
    subs = list(subspaces)
    if not subs:
        raise InputError("intersection of an empty list is undefined")
    n = subs[0].n
    if any(s.n != n for s in subs):
        raise InputError("subspaces have mixed ambient dimensions")
    projectors = []
    for s in subs:
        projectors.append(np.eye(n) - s.basis @ s.basis.conj().T)
    # projectors have unit natural scale; the floor keeps numerically-zero
    # stacks (all subspaces full) from hiding the null space
    result = Subspace(nullspace(np.vstack(projectors), rtol=rtol, floor=1.0), n=n)
    lower = sum(s.dim for s in subs) - (len(subs) - 1) * n
    if result.dim < lower:
        raise NumericalError(
            f"intersection dimension {result.dim} fell below the bound {lower}"
        )
    return result


def common_kernel(quadrics, tol: float = 1e-9) -> Subspace:
    """Intersection of the kernels of several quadrics (null space of the
    stacked coefficient matrices)."""
    quadrics = list(quadrics)
    if not quadrics:
        raise InputError("common kernel of an empty list is undefined")
    n = quadrics[0].n
    if any(q.n != n for q in quadrics):
        raise InputError("quadrics have mixed dimensions")
    scale = max(max(q.norm() for q in quadrics), 1e-300)
    stacked = np.vstack([q.matrix / scale for q in quadrics])
    return Subspace(nullspace(stacked, rtol=tol), n=n)


def sharp_family(n: int, big_n: int):
    """Quadrics sharing the coordinate subspace L = {z_{eta+1} = ... = z_n = 0}
    of dimension eta = floor(N n / (N+1)) whose kernels intersect trivially,
    witnessing sharpness of the shared-subspace dimension in the kernel
    intersection bound.

    Left indices 1..eta are covered in ceil(eta / (n - eta)) consecutive
    blocks of size at most n - eta; block b pairs its left indices with
    z_{eta+1}, z_{eta+2}, ...  When a tail of right coordinates would stay
    uncovered (N = 1 with n odd), square terms z_j^2 are appended to the first
    quadric so that the kernel intersection is exactly {0}.  Remaining slots
    up to N hold zero quadrics.

    Returns ``(quadrics, shared, meta)`` with `meta` describing the block
    layout, per-coordinate multiplicities, and whether any completion terms
    were required.
    """
    if n < 2 or big_n < 1:
        raise InputError("sharp family requires n >= 2 and N >= 1")
    eta = (big_n * n) // (big_n + 1)
    if eta < 1:
        raise InputError(f"degenerate family: floor(N n/(N+1)) = 0 for n={n}, N={big_n}")
    m = n - eta
    blocks = []
    b = 0
    while b * m < eta:
        lo, hi = b * m, min((b + 1) * m, eta)
        blocks.append([(lo + t, eta + t) for t in range(hi - lo)])
        b += 1
    if len(blocks) > big_n:  # cannot happen: eta <= N (n - eta)
        raise NumericalError("block count exceeded N")
    completion = list(range(eta + min(m, eta), n))
    mats = []
    for pairs in blocks:
        f = np.zeros((n, n), dtype=complex)
        for i, k in pairs:
            f[i, k] += 0.5
            f[k, i] += 0.5
        mats.append(f)
    for j in completion:
        mats[0][j, j] = 1.0
    quadrics = [QuadraticForm(f) for f in mats]
    quadrics += [QuadraticForm.zero(n)] * (big_n - len(quadrics))
    shared = Subspace(np.eye(n, dtype=complex)[:, :eta], n=n)
    multiplicity = [0] * n
    for pairs in blocks:
        for i, k in pairs:
            multiplicity[i] += 1
            multiplicity[k] += 1
    for j in completion:
        multiplicity[j] += 2
    meta = {
        "eta": eta,
        "blocks": len(blocks),
        "block_lengths": [len(p) for p in blocks],
        "completed_indices": [j + 1 for j in completion],
        "coordinate_multiplicities": multiplicity,
        "exact_cover": all(c > 0 for c in multiplicity),
        "reconstructed_indexing": bool(completion) or eta % m != 0,
    }
    return quadrics, shared, meta


def random_quadrics_on(sub: Subspace, count: int, seed: int):
    """`count` pseudorandom symmetric matrices vanishing identically on `sub`.

    Built in a unitary frame adapted to the subspace, with free entries only
    in rows/columns of the complement, so B^T F B = 0 up to roundoff.  A
    fixed seed gives bitwise-identical output.
    """
    if count < 1:
        raise InputError("count must be >= 1")
    n, d = sub.n, sub.dim
    rng = Rng(seed)
    comp = nullspace(sub.basis.conj().T)
    frame = np.concatenate([sub.basis, comp], axis=1)
    out = []
    for _ in range(count):
        block = np.zeros((n, n), dtype=complex)
        if d < n:
            cross = rng.complex_normal((d, n - d))
            tail = rng.symmetric(n - d)
            block[:d, d:] = cross
            block[d:, :d] = cross.T
            block[d:, d:] = tail
        out.append(QuadraticForm(frame.conj() @ block @ frame.conj().T))
    return out


def random_symmetric_with_rank(n: int, rank: int, rng: Rng) -> QuadraticForm:
    """Random symmetric matrix W^T diag(s_1..s_r, 0..) W with orthonormal W
    and s_i uniform in [0.5, 2] (well conditioned on its support)."""
    if not 0 <= rank <= n:
        raise InputError(f"rank must satisfy 0 <= rank <= n, got {rank}")
    w = rng.unitary(n)
    s = np.zeros(n)
    s[:rank] = 0.5 + 1.5 * rng.uniform(rank)
    return QuadraticForm(w.T @ np.diag(s) @ w)
