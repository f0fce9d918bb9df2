"""Command-line front end.

Every command reads/writes the JSON formats of :mod:`curvkit.serialize` (the
``--format text`` rendering is presentation only).  Exit codes: 0 success or
all checks passed, 1 validation or certified-bound failure, 2 malformed
input, 3 numerical failure.  Identical invocations (including ``--seed``)
produce byte-identical JSON.  The default tolerance can be set through the
``CURVKIT_TOL`` environment variable; an explicit ``--tol`` flag wins.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import serialize as io
from . import zeroset as zs
from .curvature import (
    _symmetry_residuals,
    curvature_kernel,
    graph_curvature,
    hsc,
    hsc_numerator_form,
    recover,
    ricci,
    ricci_definite,
    scalar,
    validate,
)
from .errors import InputError, NumericalError, PreconditionError, ValidationError
from .hermform import decompose
from .quadric import (
    common_kernel,
    isotropic_bound,
    max_isotropic,
    rank_and_kernel,
    sharp_family,
    random_symmetric_with_rank,
    vanishes_on,
)
from .rng import Rng
from .selftest import run_all

__all__ = ["main"]


def _default_tol() -> float:
    raw = os.environ.get("CURVKIT_TOL")
    if raw is None:
        return 1e-9
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InputError(f"CURVKIT_TOL is not a number: {raw!r}") from exc
    if tol <= 0:
        raise InputError(f"CURVKIT_TOL must be positive, got {raw!r}")
    return tol


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="relative tolerance (default 1e-9 or CURVKIT_TOL)")
    common.add_argument("--trials", type=int, default=200, help="randomized search trials (default 200)")
    common.add_argument("--seed", type=int, default=0, help="64-bit seed for randomized steps (default 0)")
    common.add_argument("--format", choices=("json", "text"), default="json", help="output format")
    common.add_argument("-o", "--output", default=None, help="write the result to a file instead of stdout")

    parser = argparse.ArgumentParser(prog="curvkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check tensor symmetries")
    p.add_argument("tensor")

    p = sub.add_parser("decompose", parents=[common], help="difference-of-squares split of the curvature form")
    p.add_argument("tensor")

    p = sub.add_parser("recover", parents=[common], help="curvature tensor of a decomposition")
    p.add_argument("decomposition")

    p = sub.add_parser("hsc", parents=[common], help="sectional curvature of a complex line")
    p.add_argument("tensor")
    p.add_argument("--v", required=True, help="direction as JSON [re, im] pairs, e.g. '[[1,0],[0,1]]'")
    p.add_argument("--metric", default=None)

    p = sub.add_parser("ricci", parents=[common], help="Ricci matrix, determinant, and scalar curvature")
    p.add_argument("tensor")
    p.add_argument("--metric", default=None)

    p = sub.add_parser("kernel", parents=[common], help="curvature kernel subspace")
    p.add_argument("tensor")

    p = sub.add_parser("eta", parents=[common], help="zero-set subspace dimension certificate")
    p.add_argument("tensor")

    p = sub.add_parser("bound", parents=[common], help="end-to-end bound certification")
    p.add_argument("tensors", nargs="*", help="tensor files (point samples)")
    p.add_argument("--gen", choices=("theta", "local-sharp"), help="certify a generated instance instead")
    p.add_argument("--n", type=int, help="dimension for --gen")
    p.add_argument("--rank", type=int, default=None, help="rank for --gen theta (default n)")
    p.add_argument("--N", type=int, default=None, help="length for --gen local-sharp")
    p.add_argument("--metric", default=None)

    p = sub.add_parser("gen", parents=[common], help="instance generators")
    gsub = p.add_subparsers(dest="generator", required=True)
    g = gsub.add_parser("theta", parents=[common], help="graph-metric model tensor with a random Hessian")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--rank", type=int, default=None)
    g = gsub.add_parser("sharp", parents=[common], help="shared-subspace quadric family")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--N", type=int, required=True)
    g = gsub.add_parser("local-sharp", parents=[common], help="sum-of-squares sharp decomposition")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--N", type=int, required=True)
    g.add_argument("--negative", action="store_true", help="emit the mirrored semi-negative model")

    p = sub.add_parser("quadric", parents=[common], help="quadric kernels and isotropic subspaces")
    qsub = p.add_subparsers(dest="quadric_command", required=True)
    q = qsub.add_parser("kernels", parents=[common], help="per-quadric kernels and their intersection")
    q.add_argument("quadrics")
    q = qsub.add_parser("isotropic", parents=[common], help="maximal isotropic subspace per quadric")
    q.add_argument("quadrics")

    p = sub.add_parser("selftest", parents=[common], help="run the full verification suite")
    return parser


def _render_text(obj, indent=0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{str(key).ljust(width)} : {json.dumps(val)}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)) and item and not _is_flat(item):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(item)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return lines


def _is_flat(val) -> bool:
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val) and len(val) <= 8
    return False


def _emit(doc, args) -> None:
    if args.format == "json":
        text = io.dumps(doc)
    else:
        text = "\n".join(_render_text(doc)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_tensor(path: str):
    return io.tensor_from_dict(io.load_path(path))


def _load_metric(path, n):
    if path is None:
        return None
    metric = io.metric_from_dict(io.load_path(path))
    if metric.n != n:
        raise InputError(f"metric dimension {metric.n} != tensor dimension {n}")
    return metric


def _parse_vector(text: str) -> np.ndarray:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"--v is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise InputError("--v must be a nonempty list of [re, im] pairs")
    out = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise InputError(f"--v entries must be [re, im] pairs, got {item!r}")
        out.append(complex(float(item[0]), float(item[1])))
    return np.array(out, dtype=complex)


def _point_doc(curv, metric, args):
    report = zs.verify_point(
        curv, metric, trials=args.trials, seed=args.seed, tol=args.tol
    )
    return io.point_report_to_dict(report), report


def _report_fails(report) -> bool:
    """A certified-bound failure on in-hypothesis data.

    The kernel-aware bound is unconditional; the plain bound applies only when
    the Ricci matrix is definite, so its numeric failure on a degenerate-Ricci
    instance is expected rather than an error.
    """
    if report.pass_main2 is False:
        return True
    return report.pass_main1 is False and report.ricci_definite


def _cmd_bound(args) -> int:
    if args.gen is not None:
        if args.tensors:
            raise InputError("give either tensor files or --gen, not both")
        if args.n is None:
            raise InputError("--gen requires --n")
        if args.gen == "theta":
            rank = args.n if args.rank is None else args.rank
            f = random_symmetric_with_rank(args.n, rank, Rng(args.seed))
            curv = graph_curvature([f.matrix], -1)
        else:
            if args.N is None:
                raise InputError("--gen local-sharp requires --N")
            dec, _ = zs.local_sharp_example(args.n, args.N)
            curv = recover(dec)
        doc, report = _point_doc(curv, None, args)
        _emit(doc, args)
        return 1 if _report_fails(report) else 0
    if not args.tensors:
        raise InputError("bound needs tensor files or --gen")
    docs, reports = [], []
    for path in args.tensors:
        curv = _load_tensor(path)
        metric = _load_metric(args.metric, curv.n)
        doc, report = _point_doc(curv, metric, args)
        docs.append(doc)
        reports.append(report)
    if len(docs) == 1:
        _emit(docs[0], args)
    else:
        if len({r.n for r in reports}) != 1:
            raise InputError("point samples must share one dimension")
        eta0 = min(r.eta.lower for r in reports)
        _emit(
            {
                "points": docs,
                "sampled_eta0": eta0,
                "sampled_r0": reports[0].n - eta0,
            },
            args,
        )
    return 1 if any(_report_fails(r) for r in reports) else 0


def _cmd_gen(args) -> int:
    if args.generator == "theta":
        rank = args.n if args.rank is None else args.rank
        f = random_symmetric_with_rank(args.n, rank, Rng(args.seed))
        curv = graph_curvature([f.matrix], -1)
        _emit(io.tensor_to_dict(curv), args)
    elif args.generator == "sharp":
        quadrics, shared, meta = sharp_family(args.n, args.N)
        _emit(
            {
                "n": args.n,
                "N": args.N,
                "eta": meta["eta"],
                "quadrics": io.quadrics_to_dict(quadrics)["quadrics"],
                "shared_subspace": io.subspace_to_dict(shared),
                "metadata": meta,
            },
            args,
        )
    else:
        dec, meta = zs.local_sharp_example(args.n, args.N, negative=args.negative)
        _emit(
            {
                "n": args.n,
                "N": args.N,
                "eta": meta["eta"],
                "decomposition": io.decomposition_to_dict(dec),
                "metadata": meta,
            },
            args,
        )
    return 0


def _cmd_quadric(args) -> int:
    quadrics = io.quadrics_from_dict(io.load_path(args.quadrics))
    n = quadrics[0].n
    if args.quadric_command == "kernels":
        items = []
        for idx, q in enumerate(quadrics):
            rank, kernel = rank_and_kernel(q, tol=args.tol)
            items.append(
                {"quadric": idx, "rank": rank, "dim": kernel.dim, "basis": io.subspace_to_dict(kernel)}
            )
        _emit(
            {
                "n": n,
                "kernels": items,
                "common_kernel": io.subspace_to_dict(common_kernel(quadrics, tol=args.tol)),
            },
            args,
        )
    else:
        items = []
        for idx, q in enumerate(quadrics):
            rank, _ = rank_and_kernel(q, tol=args.tol)
            witness = max_isotropic(q, tol=args.tol)
            resid = float(np.linalg.norm(witness.basis.T @ q.matrix @ witness.basis))
            items.append(
                {
                    "quadric": idx,
                    "rank": rank,
                    "bound": isotropic_bound(n, rank),
                    "dim": witness.dim,
                    "max_residual": resid,
                    "witness": io.subspace_to_dict(witness),
                }
            )
            if not vanishes_on(q, witness, tol=max(args.tol, 1e-9)):
                raise NumericalError(f"isotropic witness for quadric {idx} fails to vanish")
        _emit({"n": n, "results": items}, args)
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(seed=args.seed)
    for r in results:
        sys.stderr.write(f"[{'PASS' if r.passed else 'FAIL'}] {r.ident:>2} {r.name}: {r.detail}\n")
    doc = {
        "seed": args.seed,
        "results": [
            {"id": r.ident, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    _emit(doc, args)
    return 0 if doc["all_passed"] else 1


def _dispatch(args) -> int:
    if args.command == "validate":
        curv = _load_tensor(args.tensor)
        resid = _symmetry_residuals(curv.tensor)[0]
        _emit({"n": curv.n, "valid": True, "max_residual": resid}, args)
        return 0
    if args.command == "decompose":
        curv = _load_tensor(args.tensor)
        dec = decompose(hsc_numerator_form(curv), tol=args.tol)
        _emit(io.decomposition_to_dict(dec), args)
        return 0
    if args.command == "recover":
        dec = io.decomposition_from_dict(io.load_path(args.decomposition))
        _emit(io.tensor_to_dict(recover(dec)), args)
        return 0
    if args.command == "hsc":
        curv = _load_tensor(args.tensor)
        metric = _load_metric(args.metric, curv.n)
        value = hsc(curv, metric, _parse_vector(args.v))
        _emit({"n": curv.n, "value": value}, args)
        return 0
    if args.command == "ricci":
        curv = _load_tensor(args.tensor)
        metric = _load_metric(args.metric, curv.n)
        ric = ricci(curv, metric)
        _emit(
            {
                "n": curv.n,
                "ricci": io.matrix_to_pairs(ric),
                "determinant": io.pair(np.linalg.det(ric)),
                "definite": ricci_definite(ric, args.tol),
                "scalar": scalar(curv, metric),
            },
            args,
        )
        return 0
    if args.command == "kernel":
        curv = _load_tensor(args.tensor)
        kernel = curvature_kernel(curv, tol=args.tol)
        _emit(
            {
                "n": curv.n,
                "dim": kernel.dim,
                "n_R": curv.n - kernel.dim,
                "basis": io.subspace_to_dict(kernel),
            },
            args,
        )
        return 0
    if args.command == "eta":
        curv = _load_tensor(args.tensor)
        form = hsc_numerator_form(curv)
        dec = decompose(form, tol=args.tol)
        lower, witness = zs.eta_lower_search(
            dec, trials=args.trials, seed=args.seed, tol=args.tol
        )
        upper, provenance = zs.eta_upper(dec, tol=args.tol)
        cert = zs.EtaCertificate(lower, upper, lower == upper, witness, provenance)
        zs.check_certificate(form, witness)
        doc = {"n": curv.n, "N": dec.N}
        doc.update(io.certificate_to_dict(cert))
        _emit(doc, args)
        return 0
    if args.command == "bound":
        return _cmd_bound(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "quadric":
        return _cmd_quadric(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    raise InputError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.tol is None:
            args.tol = _default_tol()
        if args.tol <= 0:
            raise InputError("--tol must be positive")
        if args.trials < 1:
            raise InputError("--trials must be >= 1")
        return _dispatch(args)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": "input", "reason": str(exc)}) + "\n")
        return 2
    except ValidationError as exc:
        sys.stderr.write(json.dumps({"error": "validation", "reason": str(exc)}) + "\n")
        return 1
    except PreconditionError as exc:
        sys.stderr.write(json.dumps({"error": "precondition", "reason": str(exc)}) + "\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(json.dumps({"error": "numerical", "reason": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
