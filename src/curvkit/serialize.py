"""JSON interchange formats.

Complex scalars are ``[re, im]`` pairs throughout; tensor indices are
1-based.  Schemas:

* tensor: ``{"n": int, "entries": [{"i","j","k","l": int, "re","im": float}]}``
  - entries not listed are filled by symmetry closure, then zero; entries
  that conflict with the closure of others are reported as offenders.
* metric: ``{"n": int, "g": [[re, im] x n^2]}`` (row-major).
* pair-basis form: ``{"n": int, "a": [[re, im] x D^2]}`` (row-major,
  D = n(n+1)/2).
* decomposition: ``{"n": int, "N": int, "pos": [matrix], "neg": [matrix]}``
  with each matrix row-major ``[[re, im] x n^2]``.
* quadric list: ``{"n": int, "quadrics": [matrix]}``.
* subspace: ``{"n": int, "d": int, "basis": [[re, im] x (n d)]}``
  (column-major).

Dictionaries are built with a fixed key order and floats use the shortest
round-trip representation, so identical values serialize to identical bytes.
"""

import json

import numpy as np

from .curvature import _CONJ, _PLAIN, KahlerCurvature, HermitianMetric, _orbits, validate
from .errors import InputError, ValidationError
from .hermform import HermitianForm22, QuadraticForm, SquareDecomposition, pair_dim
from .quadric import Subspace
from .zeroset import EtaCertificate, PointReport

__all__ = [
    "pair",
    "matrix_to_pairs",
    "tensor_to_dict",
    "tensor_from_dict",
    "metric_to_dict",
    "metric_from_dict",
    "form_to_dict",
    "form_from_dict",
    "decomposition_to_dict",
    "decomposition_from_dict",
    "quadrics_to_dict",
    "quadrics_from_dict",
    "subspace_to_dict",
    "subspace_from_dict",
    "certificate_to_dict",
    "point_report_to_dict",
    "dumps",
    "load_path",
]

def pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _unpair(p):
    if not (isinstance(p, (list, tuple)) and len(p) == 2):
        raise InputError(f"complex scalar must be a [re, im] pair, got {p!r}")
    return complex(float(p[0]), float(p[1]))


def matrix_to_pairs(m: np.ndarray) -> list:
    return [pair(z) for z in np.asarray(m).ravel(order="C")]


def _matrix_from_list(data, rows, cols, what):
    if len(data) != rows * cols:
        raise InputError(f"{what}: expected {rows * cols} entries, got {len(data)}")
    flat = np.array([_unpair(p) for p in data], dtype=complex)
    return flat.reshape(rows, cols)


def _require(d, key, what):
    if not isinstance(d, dict) or key not in d:
        raise InputError(f"{what}: missing key {key!r}")
    return d[key]


def _dimension(d, what):
    n = _require(d, "n", what)
    if not isinstance(n, int) or n < 1:
        raise InputError(f"{what}: 'n' must be a positive integer, got {n!r}")
    return n


def tensor_to_dict(curv: KahlerCurvature) -> dict:
    """One entry per symmetry orbit (its lexicographically least member);
    orbits whose value is zero are omitted."""
    n = curv.n
    least = _orbits(n)[0][:, 0]
    z = curv.tensor.ravel()[least]
    keep = z != 0
    quads = np.stack(np.unravel_index(least[keep], (n,) * 4), axis=1) + 1
    entries = [
        {"i": i, "j": j, "k": k, "l": l, "re": re, "im": im}
        for (i, j, k, l), re, im in zip(
            quads.tolist(), z[keep].real.tolist(), z[keep].imag.tolist()
        )
    ]
    return {"n": n, "entries": entries}


def tensor_from_dict(d: dict) -> KahlerCurvature:
    """Read entries, close them under the symmetry orbits, fill the rest with
    zero, and validate.  Conflicting entries are collected and reported."""
    what = "tensor"
    n = _dimension(d, what)
    raw_entries = _require(d, "entries", what)
    if not isinstance(raw_entries, list):
        raise InputError(f"{what}: 'entries' must be a list")
    given = {}
    offenders = []
    values = [0.0]
    for e in raw_entries:
        try:
            idx = tuple(int(e[key]) - 1 for key in ("i", "j", "k", "l"))
            val = complex(float(e["re"]), float(e["im"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{what}: malformed entry {e!r}") from exc
        if any(not 0 <= x < n for x in idx):
            raise InputError(f"{what}: index out of range in entry {e!r}")
        values.append(abs(val))
        if idx in given and given[idx] != val:
            offenders.append(tuple(x + 1 for x in idx))
        given[idx] = val
    ctol = 1e-10 * max(values)
    t = np.zeros(n**4, dtype=complex)
    if given:
        # images of every entry, its 4 plain ones then its 4 conjugate ones;
        # a target keeps the value implied first, and a later one that
        # differs by more than ctol is a conflict
        quads = np.array(list(given), dtype=np.intp)
        targets = (quads[:, _PLAIN + _CONJ] @ n ** np.arange(3, -1, -1)).ravel()
        vals = np.array(list(given.values()), dtype=complex)[:, None]
        implied = np.hstack([vals.repeat(4, axis=1), vals.conj().repeat(4, axis=1)]).ravel()
        _, first, which = np.unique(targets, return_index=True, return_inverse=True)
        clash = np.abs(implied - implied[first][which]) > ctol
        clashing = np.stack(np.unravel_index(targets[clash], (n,) * 4), axis=1) + 1
        offenders += [tuple(q) for q in clashing.tolist()]
        t[targets[first]] = implied[first]
    if offenders:
        uniq = sorted(set(offenders))
        raise ValidationError(
            f"{what}: {len(uniq)} entries conflict under symmetry closure: {uniq}",
            indices=uniq,
        )
    return validate(t.reshape((n,) * 4))


def metric_to_dict(metric: HermitianMetric) -> dict:
    return {"n": metric.n, "g": matrix_to_pairs(metric.matrix)}


def metric_from_dict(d: dict) -> HermitianMetric:
    n = _dimension(d, "metric")
    g = _matrix_from_list(_require(d, "g", "metric"), n, n, "metric")
    return HermitianMetric(g)


def form_to_dict(form: HermitianForm22) -> dict:
    return {"n": form.n, "a": matrix_to_pairs(form.matrix)}


def form_from_dict(d: dict) -> HermitianForm22:
    n = _dimension(d, "form")
    dim = pair_dim(n)
    a = _matrix_from_list(_require(d, "a", "form"), dim, dim, "form")
    return HermitianForm22(a)


def decomposition_to_dict(dec: SquareDecomposition) -> dict:
    return {
        "n": dec.n,
        "N": dec.N,
        "pos": [matrix_to_pairs(q.matrix) for q in dec.pos],
        "neg": [matrix_to_pairs(q.matrix) for q in dec.neg],
    }


def decomposition_from_dict(d: dict) -> SquareDecomposition:
    what = "decomposition"
    n = _dimension(d, what)
    sides = []
    for key in ("pos", "neg"):
        mats = _require(d, key, what)
        if not isinstance(mats, list):
            raise InputError(f"{what}: {key!r} must be a list of matrices")
        sides.append(
            tuple(QuadraticForm(_matrix_from_list(m, n, n, what)) for m in mats)
        )
    dec = SquareDecomposition(n, pos=sides[0], neg=sides[1])
    declared = d.get("N")
    if declared is not None and declared != dec.N:
        raise InputError(f"{what}: declared N={declared} but sides give N={dec.N}")
    return dec


def quadrics_to_dict(quadrics) -> dict:
    quadrics = list(quadrics)
    if not quadrics:
        raise InputError("quadric list is empty")
    return {
        "n": quadrics[0].n,
        "quadrics": [matrix_to_pairs(q.matrix) for q in quadrics],
    }


def quadrics_from_dict(d: dict):
    what = "quadrics"
    n = _dimension(d, what)
    mats = _require(d, "quadrics", what)
    if not isinstance(mats, list) or not mats:
        raise InputError(f"{what}: 'quadrics' must be a nonempty list")
    return [QuadraticForm(_matrix_from_list(m, n, n, what)) for m in mats]


def subspace_to_dict(sub: Subspace) -> dict:
    return {
        "n": sub.n,
        "d": sub.dim,
        "basis": [pair(z) for z in np.asarray(sub.basis).ravel(order="F")],
    }


def subspace_from_dict(d: dict) -> Subspace:
    what = "subspace"
    n = _dimension(d, what)
    dim = _require(d, "d", what)
    if not isinstance(dim, int) or dim < 0:
        raise InputError(f"{what}: 'd' must be a nonnegative integer")
    data = _require(d, "basis", what)
    if len(data) != n * dim:
        raise InputError(f"{what}: expected {n * dim} basis entries, got {len(data)}")
    flat = np.array([_unpair(p) for p in data], dtype=complex)
    return Subspace(flat.reshape((n, dim), order="F"), n=n)


def certificate_to_dict(cert: EtaCertificate) -> dict:
    return {
        "eta_lower": cert.lower,
        "eta_upper": cert.upper,
        "eta_exact": cert.exact,
        "upper_provenance": [
            {"quadric": idx, "rank": rank, "bound": bound}
            for idx, rank, bound in cert.upper_provenance
        ],
        "witness": subspace_to_dict(cert.witness),
    }


def point_report_to_dict(report: PointReport) -> dict:
    return {
        "n": report.n,
        "N": report.N,
        "n_R": report.n_R,
        "eta_lower": report.eta.lower,
        "eta_upper": report.eta.upper,
        "eta_exact": report.eta.exact,
        "r_point": report.r_point,
        "bound_main1": report.bound_main1,
        "bound_main2": report.bound_main2,
        "ricci_det": pair(report.ricci_det),
        "ricci_definite": report.ricci_definite,
        "pass_main1": report.pass_main1,
        "pass_main2": report.pass_main2,
        "witness": subspace_to_dict(report.eta.witness),
    }


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical JSON text: fixed key order, two-space indent, newline end."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_json_default) + "\n"


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
