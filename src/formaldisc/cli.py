"""Command-line interface.

Subcommands: weyl mul|comm|iota, poisson, tower check, cohomology dims|class,
darboux normalize|transport, verify <suite>.  Each has one handler that
returns (stdout text, JSON payload, exit code), and `main` is the one exit
path: it alone prints the text, writes the payload to `--json` and maps
errors.  Exit codes: 0 success, 1 a check failed, 2 a usage error or an
unwritable `--json` path, 141 when the reader of stdout has closed it
before the text is written (as `| head` may), with no traceback.  Every
payload is a schema-1 `reports.envelope`;
reports echo their seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import cohomology, darboux, suites, tower
from .errors import CheckFailure, UsageError
from .exprs import EvalContext, eval_form, eval_poly, eval_weyl
from .reports import envelope
from .series import PoissonBivector, poisson_bracket
from .weyl import TruncationSpec, commutator, iota, star


def _add_common(parser, handler, n_default=6):
    parser.set_defaults(handler=handler)
    parser.add_argument("--d", type=int, default=1, help="disc dimension d")
    parser.add_argument("--p", type=int, default=2, help="h-order truncation")
    parser.add_argument("--N", type=int, default=n_default, help="weight cutoff")
    parser.add_argument("--seed", type=int, default=2026, help="sweep seed")
    parser.add_argument("--json", metavar="PATH", help="write a JSON report/result")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="formaldisc",
        description="Exact truncated Weyl algebra, Lie tower, cohomology and "
        "formal Darboux toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    weyl = sub.add_parser("weyl", help="Weyl algebra operations")
    weyl_sub = weyl.add_subparsers(dest="op", required=True)
    for op, nargs in (("mul", 2), ("comm", 2), ("iota", 1)):
        wp = weyl_sub.add_parser(op)
        wp.add_argument("exprs", nargs=nargs, metavar="EXPR")
        _add_common(wp, _weyl)

    poisson = sub.add_parser("poisson", help="Poisson bracket of two functions")
    poisson.add_argument("f", metavar="F")
    poisson.add_argument("g", metavar="G")
    poisson.add_argument(
        "--form", help="symplectic form expression (default: standard bivector)"
    )
    _add_common(poisson, _poisson)

    towp = sub.add_parser("tower", help="Lie tower checks")
    tow_sub = towp.add_subparsers(dest="op", required=True)
    check = tow_sub.add_parser("check")
    check.add_argument(
        "--inject-fault",
        action="store_true",
        help="corrupt one structure constant first (the report must fail)",
    )
    _add_common(check, _tower_check)

    coh = sub.add_parser("cohomology", help="Chevalley-Eilenberg computations")
    coh_sub = coh.add_subparsers(dest="op", required=True)
    dims = coh_sub.add_parser("dims")
    dims.add_argument(
        "--algebra", choices=("H", "A", "sp", "W"), default="H", help="which algebra"
    )
    dims.add_argument("--module", choices=("trivial",), default="trivial")
    dims.add_argument("--degrees", default="0,1,2", help="comma list of degrees")
    _add_common(dims, _cohomology_dims, n_default=5)
    cls = coh_sub.add_parser("class")
    cls.add_argument(
        "--which", choices=("omega", "obstruction"), default="omega"
    )
    _add_common(cls, _cohomology_class)

    dar = sub.add_parser("darboux", help="formal Darboux normalization")
    dar_sub = dar.add_subparsers(dest="op", required=True)
    norm = dar_sub.add_parser("normalize")
    norm.add_argument("--form", required=True, help="symplectic form expression")
    _add_common(norm, _darboux_normalize, n_default=8)
    trans = dar_sub.add_parser("transport")
    trans.add_argument("--form", required=True)
    trans.add_argument("--a", required=True)
    trans.add_argument("--b", required=True)
    _add_common(trans, _darboux_transport)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=suites.SUITES)
    verify.add_argument("--inject-fault", action="store_true")
    _add_common(verify, _verify)

    return parser


# the status a shell reports for a writer killed by SIGPIPE: 128 + 13
BROKEN_PIPE = 141


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, payload, code = args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(_json_text(payload) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        print(text)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull, as the
        # SIGPIPE note of the Python docs does, so that no traceback follows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2)


def _report(report):
    return report.render_text(), report.to_json(), report.exit_code


def _weyl(args):
    spec = TruncationSpec(args.d, args.p, args.N)
    if args.op == "iota":
        result = iota(eval_weyl(args.exprs[0], spec))
    else:
        a, b = (eval_weyl(e, spec) for e in args.exprs)
        result = (star if args.op == "mul" else commutator)(a, b)
    params = {"d": args.d, "p": args.p, "N": args.N}
    return str(result), envelope(f"weyl {args.op}", params, result=result.to_json()), 0


def _poisson(args):
    ctx = EvalContext(args.d, args.N)
    f, g = eval_poly(args.f, ctx), eval_poly(args.g, ctx)
    if args.form:
        fs = darboux.check_symplectic(eval_form(args.form, ctx))
        theta = darboux.form_to_bivector(fs)
    else:
        theta = PoissonBivector.standard(args.d, args.N)
    result = poisson_bracket(f, g, theta)
    params = {"d": args.d, "N": args.N}
    return str(result), envelope("poisson", params, result=result.to_json()), 0


def _tower_check(args):
    return _report(
        tower.commu_diagram_check(args.d, args.p, args.N, corrupt=args.inject_fault)
    )


def _verify(args):
    return _report(
        suites.run_suite(
            args.suite,
            d=args.d,
            p=args.p,
            n=args.N,
            seed=args.seed,
            inject_fault=args.inject_fault,
        )
    )


def _pick_algebra(name, d, n):
    if name == "H":
        return tower.build_h(d, n)
    if name == "A":
        return tower.build_a_poisson(d, n)
    if name == "W":
        return tower.build_w(d, n)
    return tower.sp_algebra(d)


def _cohomology_dims(args):
    started = time.monotonic()
    if args.d < 1 or args.N < 0:
        raise UsageError(
            f"cohomology dims needs d >= 1 and N >= 0; got d={args.d}, N={args.N}"
        )
    if args.algebra == "sp" and args.p < 0:
        raise UsageError(f"cohomology dims --algebra sp needs p >= 0; got p={args.p}")
    tokens = [tok.strip() for tok in args.degrees.split(",")]
    if not all(tok.isdecimal() for tok in tokens):
        raise UsageError(f"cohomology dims needs degrees >= 0; got {args.degrees!r}")
    algebra = _pick_algebra(args.algebra, args.d, args.N)
    module = cohomology.trivial_module(algebra)
    table = {}
    for k in map(int, tokens):
        for w in cohomology.tuple_weights(algebra.weights, k):
            dim = cohomology.cohomology_dim(module, k, w)
            if dim:
                table[f"H^{k}(w={w})"] = dim
    params = {"algebra": args.algebra, "d": args.d, "N": args.N, "module": "trivial"}
    if args.algebra == "sp":
        del params["N"]  # sp(2d) depends on d alone
    payload = envelope(
        "cohomology dims",
        params,
        dimensions=table,
        duration_s=round(time.monotonic() - started, 3),
    )
    return _json_text(payload), payload, 0


def _cohomology_class(args):
    if args.which == "obstruction":
        # extension_cocycle raises CheckFailure unless the cochain is a cocycle
        obs = tower.tower_obstruction(args.d, args.p, args.N)
        payload = envelope(
            "cohomology class obstruction",
            {"d": args.d, "p": args.p, "N": args.N},
            cocycle=True,
            support_pairs=len(obs.cochain.values),
        )
        return _json_text(payload), payload, 0
    cls = cohomology.omega_class(args.d, args.N)
    nonzero = cls.is_nonzero()
    payload = envelope(
        "cohomology class omega",
        {"d": args.d, "N": args.N},
        degree=cls.degree,
        weight=cls.weight,
        nonzero=nonzero,
        support={
            str(idx): {str(m): str(c) for m, c in vec.items()}
            for idx, vec in cls.representative.values.items()
        },
    )
    return _json_text(payload), payload, 0 if nonzero else 1


def _darboux_normalize(args):
    fs = darboux.check_symplectic(eval_form(args.form, EvalContext(args.d, args.N)))
    phi = darboux.darboux_normalize(fs)
    residual = darboux.pullback_residual(fs, phi)
    zero = residual.is_zero()
    text = (
        f"coordinate change:\n  {phi}\n"
        f"verification residual: {'0' if zero else residual}"
    )
    payload = envelope(
        "darboux normalize",
        {"d": args.d, "N": args.N},
        phi=phi.to_json(),
        residual_zero=zero,
    )
    return text, payload, 0 if zero else 1


def _darboux_transport(args):
    if args.p < 0:
        raise UsageError(f"darboux transport needs p >= 0; got p={args.p}")
    ctx = EvalContext(args.d, args.N)
    fs = darboux.check_symplectic(eval_form(args.form, ctx))
    deep = darboux.check_symplectic(darboux.lift_form(fs.form, args.N + 2))
    phi = darboux.darboux_normalize(deep)
    phi_inv = phi.inverse()
    spec = TruncationSpec(args.d, args.p, phi.cutoff)
    a = eval_poly(args.a, ctx).lifted(phi.cutoff)
    b = eval_poly(args.b, ctx).lifted(phi.cutoff)
    product = darboux.transported_product_symbol(phi, a, b, spec, phi_inv)
    result = product.truncated(args.N)
    params = {"d": args.d, "p": args.p, "N": args.N}
    payload = envelope("darboux transport", params, result=result.to_json())
    return str(result), payload, 0


if __name__ == "__main__":
    sys.exit(main())
