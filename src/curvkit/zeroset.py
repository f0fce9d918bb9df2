"""Zero-set subspace dimension with certificates and the curvature
nondegeneracy bounds.

For a semi-definite sectional curvature the zero set on a tangent space is
the common zero set of the quadratic forms of its one-sided square
decomposition.  The largest linear subspace inside it (dimension ``eta``) is
bracketed by a constructive lower bound (a witness subspace found by seeded
search) and the per-quadric isotropic-dimension upper bound; the certificate
is exact when the two meet.  The integer bound formulas

* ``n - floor(N n / (N+1))``, and
* ``n - floor((N n + (n - n_R)) / (N+1))``

are the certified lower bounds on ``n - eta`` in terms of the decomposition
length ``N`` and the curvature-kernel rank ``n_R``.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import (
    HermitianMetric,
    KahlerCurvature,
    curvature_kernel,
    hsc_numerator_form,
    ricci,
    ricci_definite,
)
from .errors import InputError, NumericalError, PreconditionError
from .hermform import (
    HermitianForm22,
    SquareDecomposition,
    _pair_change_of_basis,
    decompose,
    signature,
)
from .quadric import Subspace, isotropic_bound, max_isotropic, nullspace, sharp_family
from .rng import Rng

__all__ = [
    "EtaCertificate",
    "PointReport",
    "bound_main1",
    "bound_main2",
    "eta_upper",
    "eta_lower_search",
    "verify_point",
    "local_sharp_example",
]


def bound_main1(n: int, big_n: int) -> int:
    """Certified lower bound n - floor(N n / (N+1)) for decomposition length N."""
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    if big_n < 1:
        raise InputError(f"decomposition length must be >= 1, got {big_n}")
    return n - (big_n * n) // (big_n + 1)


def bound_main2(n: int, big_n: int, n_r: int) -> int:
    """Refined bound n - floor((N n + (n - n_R)) / (N+1)); reduces to
    :func:`bound_main1` at n_R = n and vanishes at n_R = 0."""
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    if big_n < 1:
        raise InputError(f"decomposition length must be >= 1, got {big_n}")
    if not 0 <= n_r <= n:
        raise InputError(f"curvature rank must satisfy 0 <= n_R <= n, got {n_r}")
    return n - (big_n * n + (n - n_r)) // (big_n + 1)


@dataclass(frozen=True)
class EtaCertificate:
    """Bracket [lower, upper] for the zero-set subspace dimension.

    `witness` spans a subspace on which the form vanishes identically, so
    `lower` is sound; `upper_provenance` lists the per-quadric isotropy bounds
    (index, rank, bound) whose minimum gives `upper`.
    """

    lower: int
    upper: int
    exact: bool
    witness: Subspace
    upper_provenance: tuple = ()


@dataclass(frozen=True)
class PointReport:
    """End-to-end certification record for one tangent-space instance.

    Pass flags are True/False when the eta bracket decides the comparison and
    None when it is inconclusive.
    """

    n: int
    N: int
    n_R: int
    eta: EtaCertificate
    r_point: int
    bound_main1: int
    bound_main2: int
    ricci_det: complex
    ricci_definite: bool
    pass_main1: bool | None
    pass_main2: bool | None


def _active_side(dec: SquareDecomposition):
    """Nonzero forms of the single active side; error when indefinite."""
    side = dec.definite_side()
    if side is None:
        raise PreconditionError(
            "decomposition is indefinite (both sides nonzero); the zero set is"
            " not a quadric intersection there - use dangelo_system for manual"
            " analysis"
        )
    if side == "zero":
        return ()
    return dec.nonzero_pos() if side == "pos" else dec.nonzero_neg()


def eta_upper(dec: SquareDecomposition, tol: float = 1e-9):
    """Upper bound for the zero-set subspace dimension: minimum over the
    active quadrics of (n - rank) + floor(rank / 2); n when the form is zero.

    Returns ``(bound, provenance)`` with one (index, rank, bound) triple per
    nonzero quadric.
    """
    quads = _active_side(dec)
    if not quads:
        return dec.n, ()
    provenance = []
    for idx, q in enumerate(quads):
        sv = np.linalg.svd(q.matrix, compute_uv=False)
        rank = int(np.sum(sv > tol * sv[0]))
        provenance.append((idx, rank, isotropic_bound(dec.n, rank)))
    return min(p[2] for p in provenance), tuple(provenance)


def _coordinate_isotropic(mats, n, rng, scale):
    """Greedy coordinate subset S (random order) with F[S, S] ~ 0 for all
    quadrics; coordinate subspaces are natural candidates for monomial-
    structured systems."""
    order = np.argsort(rng.uniform(n))
    chosen = []
    for i in order:
        i = int(i)
        ok = True
        for f in mats:
            if abs(f[i, i]) > 1e-12 * scale or any(
                abs(f[i, j]) > 1e-12 * scale for j in chosen
            ):
                ok = False
                break
        if ok:
            chosen.append(i)
    return chosen


def _joint_zero(restricted, rng, scale, iters=60):
    """Gauss-Newton search for a joint zero of complex quadrics c^T G c = 0
    on the unit sphere; None when it does not converge."""
    m = restricted[0].shape[0]
    c = rng.complex_normal(m)
    c /= np.linalg.norm(c)
    for _ in range(iters):
        q = np.array([c @ g @ c for g in restricted])
        if np.max(np.abs(q)) <= 1e-13 * scale:
            return c
        jac = np.array([2.0 * (g @ c) for g in restricted])
        step, *_ = np.linalg.lstsq(jac, -q, rcond=None)
        c = c + step
        norm = np.linalg.norm(c)
        if norm < 1e-12:
            return None
        c /= norm
    q = np.array([c @ g @ c for g in restricted])
    return c if np.max(np.abs(q)) <= 1e-11 * scale else None


def _extend_isotropic(mats, n, start_cols, rng, scale):
    """Grow an isotropic basis from `start_cols` one direction at a time.

    Each step restricts to the admissible complement (new directions must be
    bilinearly null against the current basis and orthogonal to it).  Inside
    it, a direction in the common matrix kernel of the restricted quadrics is
    preferred (it leaves the admissible complement as large as possible);
    otherwise a joint zero is located by Gauss-Newton.
    """
    basis = list(start_cols)
    while len(basis) < n:
        rows = []
        for b in basis:
            for f in mats:
                r = f @ b
                norm = np.linalg.norm(r)
                if norm > 1e-11 * scale:
                    rows.append(r / norm)
            rows.append(b.conj())
        stacked = np.array(rows) if rows else np.zeros((0, n), dtype=complex)
        admissible = nullspace(stacked)
        width = admissible.shape[1]
        if width == 0:
            break
        restricted = [admissible.T @ f @ admissible for f in mats]
        rscale = max(np.linalg.norm(g) for g in restricted)
        if rscale <= 1e-11 * scale:
            # the whole complement is isotropic
            coeff = rng.complex_normal(width)
            new = admissible @ (coeff / np.linalg.norm(coeff))
        else:
            kernel = nullspace(np.vstack(restricted) / rscale)
            if kernel.shape[1] > 0:
                coeff = kernel @ rng.complex_normal(kernel.shape[1])
                new = admissible @ (coeff / np.linalg.norm(coeff))
            else:
                found = None
                for _ in range(6):
                    c = _joint_zero(restricted, rng, scale)
                    if c is not None:
                        found = c
                        break
                if found is None:
                    break
                new = admissible @ found
        basis.append(new / np.linalg.norm(new))
    return basis


def eta_lower_search(
    dec: SquareDecomposition, trials: int = 200, seed: int = 0, tol: float = 1e-9
):
    """Seeded search for a large subspace inside the zero set of a
    semi-definite decomposition.

    A single nonzero quadric is handled exactly through its Takagi frame.
    Otherwise the search starts from the common matrix kernel (always
    extendable: the kernel is bilinearly null against everything), seeds even
    trials with a greedy coordinate-isotropic subset, extends greedily, and
    keeps the best witness over all trials.  Enlarging `trials` with the same
    seed never shrinks the result.

    Returns ``(dimension, witness subspace)``.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    n = dec.n
    quads = _active_side(dec)
    if not quads:
        return n, Subspace.full(n)
    if len(quads) == 1:
        witness = max_isotropic(quads[0], tol=tol)
        return witness.dim, witness
    mats = [q.matrix for q in quads]
    scale = max(max(np.linalg.norm(f) for f in mats), 1.0)
    upper, _ = eta_upper(dec, tol)
    kernel = nullspace(np.vstack(mats) / scale, rtol=tol)
    best = [kernel[:, i] for i in range(kernel.shape[1])]
    for trial in range(trials):
        rng = Rng(seed, stream=trial)
        start = [kernel[:, i] for i in range(kernel.shape[1])]
        if trial % 2 == 0:
            coords = _coordinate_isotropic(mats, n, rng, scale)
            if coords:
                stacked = np.zeros((n, kernel.shape[1] + len(coords)), dtype=complex)
                stacked[:, : kernel.shape[1]] = kernel
                for j, i in enumerate(coords):
                    stacked[i, kernel.shape[1] + j] = 1.0
                u, s, _ = np.linalg.svd(stacked, full_matrices=False)
                rank = int(np.sum(s > 1e-9 * s[0]))
                start = [u[:, i] for i in range(rank)]
        basis = _extend_isotropic(mats, n, start, rng, scale)
        if len(basis) > len(best):
            best = basis
        if len(best) >= upper:
            break
    if not best:
        return 0, Subspace.trivial(n)
    witness = Subspace.from_span(np.array(best).T, n=n)
    return witness.dim, witness


def check_certificate(form: HermitianForm22, witness: Subspace, seed: int = 0):
    """Soundness check: the form vanishes on every direction of the witness.

    With B the witness basis and S_B the pair-basis matrix with
    w(B c) = S_B w(c), the form restricted to the witness is the pulled-back
    matrix M = S_B^* A S_B, and it must satisfy ||M||_F <= 1e-8 * ||A||_F.
    For a unit c, ||w(c)|| <= 1, so |H(B c)| <= ||M||_2 <= ||M||_F: the bound
    holds on all unit vectors of the witness, not on a sample.  `seed` is
    ignored; it stays for callers written when the check sampled directions.
    Raises NumericalError when the bound fails.
    """
    if form.n != witness.n:
        raise InputError(
            f"witness ambient dimension {witness.n} != form dimension {form.n}"
        )
    if witness.dim == 0:
        return
    s_b = _pair_change_of_basis(witness.basis)
    resid = float(np.linalg.norm(s_b.conj().T @ form.matrix @ s_b))
    bound = 1e-8 * max(form.norm(), 1e-300)
    if resid > bound:
        raise NumericalError(
            f"witness subspace fails soundness: ||S_B^* A S_B||_F = {resid:.3e}"
            f" exceeds 1e-8 * ||form|| = {bound:.3e}"
        )


def _tri_state(r_low: int, r_high: int, bound: int):
    if r_low >= bound:
        return True
    if r_high < bound:
        return False
    return None


def verify_point(
    curv: KahlerCurvature,
    metric: HermitianMetric | None = None,
    trials: int = 200,
    seed: int = 0,
    tol: float = 1e-9,
) -> PointReport:
    """Full certification pipeline for one tangent-space instance.

    Decomposes the sectional-curvature form (semi-definite required), brackets
    the zero-set subspace dimension, evaluates both integer bounds, and
    reports the Ricci determinant / definiteness (a common kernel direction
    of the quadrics forces a degenerate Ricci matrix).
    """
    n = curv.n
    form = hsc_numerator_form(curv)
    sig = signature(form, tol)
    if sig[0] > 0 and sig[1] > 0:
        raise PreconditionError(
            f"sectional curvature form is indefinite (signature {sig});"
            " the bound theorems require semi-definiteness"
        )
    dec = decompose(form, tol)
    length = dec.N
    kernel = curvature_kernel(curv, tol)
    n_r = n - kernel.dim
    lower, witness = eta_lower_search(dec, trials=trials, seed=seed, tol=tol)
    upper, provenance = eta_upper(dec, tol)
    if lower > upper:
        raise NumericalError(
            f"eta bracket inverted: search found {lower} above bound {upper}"
        )
    cert = EtaCertificate(lower, upper, lower == upper, witness, provenance)
    check_certificate(form, witness)
    b1 = bound_main1(n, length) if length >= 1 else 0
    b2 = bound_main2(n, length, n_r) if length >= 1 else 0
    r_low, r_high = n - cert.upper, n - cert.lower
    ric = ricci(curv, metric)
    return PointReport(
        n=n,
        N=length,
        n_R=n_r,
        eta=cert,
        r_point=n - cert.lower,
        bound_main1=b1,
        bound_main2=b2,
        ricci_det=complex(np.linalg.det(ric)),
        ricci_definite=ricci_definite(ric, tol),
        pass_main1=_tri_state(r_low, r_high, b1),
        pass_main2=_tri_state(r_low, r_high, b2),
    )


def local_sharp_example(n: int, big_n: int, negative: bool = False):
    """Sum-of-squares sectional curvature attaining the first bound exactly.

    The squares are the shared-subspace quadric family, so the zero set
    contains the coordinate subspace of dimension eta = floor(N n/(N+1)) and
    no linear subspace of larger dimension, while the recovered Ricci matrix
    is positive definite.  With ``negative=True`` the mirrored semi-negative
    model is produced.

    Returns ``(decomposition, metadata)``.
    """
    quadrics, shared, meta = sharp_family(n, big_n)
    active = tuple(q for q in quadrics if not q.is_zero(1e-12))
    dec = (
        SquareDecomposition(n, pos=(), neg=active)
        if negative
        else SquareDecomposition(n, pos=active, neg=())
    )
    meta = dict(meta)
    meta["requested_length"] = big_n
    meta["effective_length"] = len(active)
    meta["shared_subspace_dim"] = shared.dim
    meta["orientation"] = -1 if negative else 1
    return dec, meta
