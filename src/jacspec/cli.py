"""Batch command-line front end with CSV/JSON output.

Subcommands: spectrum, asymptotics, verify, oracle.  Fully
deterministic: identical invocations on the same machine produce
byte-identical output.
Heavy imports happen inside main() so the JS_THREADS cap can take
effect before numpy loads its BLAS.
"""

import argparse
import contextlib
import csv
import functools
import json
import os
import re
import sys

_DEFAULTS = {
    "g": 0.5,
    "c1": 1.0,
    "c2": 0.0,
    "n": "8:512",
    "tol": 1e-8,
    "format": "csv",
    "eps_tail": 1e-8,
    "smax": 20,
    "xgrid": "0.1:100:200",
    "nmax": 100000,
    "similarity_n": 256,
    "offset_pmax": 5,
    "offset_blocks": 5,
    "offset_ntop": 2048,
    "orthonormality_nmax": 100,
    "cap": 20,
    "points": 256,
    "oracle_tol": 1e-9,
}

# largest x that verify's Bessel grid may reach: the Miller recurrence
# starts at a degree of about x, so one point costs about 0.016 s there
# and 1.6 s at x = 1e7
_XGRID_MAX = 1e5
# most points verify's Bessel grid may hold: near hi = 1e5 a point costs
# about 6.6 ms, so the largest grid takes about 13 s
_XGRID_COUNT_MAX = 2000
# smallest --nmax verify accepts.  laguerre_bound(x=1), which always
# runs, takes its early sup over n <= nmax // 10.  Past the turning
# point, w_n(x) oscillates in n with phase 2 sqrt(n x) (Hilb's formula),
# so one full period at x = 1 takes n up to pi^2 = 9.87: below
# nmax // 10 = 10 the early window holds less than one oscillation and
# there is no sup to judge the later degrees against; 10 * ceil(pi^2)
_NMAX_MIN = 100
# largest truncation of the oracle's conjugation sum; it starts at
# cap + 80 and doubles until the tail of every column it reads is
# negligible
_ORACLE_K_MAX = 1600

_EXIT_USAGE = 1
_EXIT_UNCONVERGED = 2
_EXIT_CHECK_FAILED = 3


# negative numbers, exponent notation included; argparse alone takes -1e-5 for a flag
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_EXIT_USAGE)


def _parse_range(text):
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    return lo, hi


def _parse_grid(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    if not (0.0 < lo < hi <= _XGRID_MAX and 2 <= count <= _XGRID_COUNT_MAX):
        raise argparse.ArgumentTypeError(
            f"grid needs 0 < lo < hi <= {_XGRID_MAX:g} and "
            f"2 <= count <= {_XGRID_COUNT_MAX}, got {text!r}"
        )
    return lo, hi, count


def _add_common(sub):
    sub.add_argument("--g", type=float, default=_DEFAULTS["g"])
    sub.add_argument("--c1", type=float, default=_DEFAULTS["c1"])
    sub.add_argument("--c2", type=float, default=_DEFAULTS["c2"])
    sub.add_argument("--n", type=_parse_range, default=_parse_range(_DEFAULTS["n"]),
                     metavar="LO:HI", help="inclusive eigenvalue index range")
    sub.add_argument("--tol", type=float, default=_DEFAULTS["tol"])
    sub.add_argument("--format", choices=("csv", "json"), default=_DEFAULTS["format"])
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


@functools.cache
def build_parser():
    parser = _Parser(prog="jacspec", description=__doc__)
    parser.add_argument(
        "--defaults", action="store_true",
        help="print the pinned default settings as JSON and exit",
    )
    subs = parser.add_subparsers(dest="command")
    for name in ("spectrum", "asymptotics"):
        _add_common(subs.add_parser(name))
    verify = subs.add_parser("verify")
    _add_common(verify)
    verify.add_argument("--smax", type=int, default=_DEFAULTS["smax"])
    verify.add_argument("--xgrid", type=_parse_grid,
                        default=_parse_grid(_DEFAULTS["xgrid"]), metavar="LO:HI:COUNT")
    verify.add_argument("--nmax", type=int, default=_DEFAULTS["nmax"])
    oracle = subs.add_parser("oracle")
    _add_common(oracle)
    oracle.add_argument("--cap", type=int, default=_DEFAULTS["cap"])
    oracle.add_argument("--points", type=int, default=_DEFAULTS["points"])
    return parser


def _check_args(args):
    from .eigensolve import TOL_FLOOR

    lo, hi = args.n
    if not (0 <= lo <= hi):
        raise SystemExit(_usage_error(f"invalid index range {lo}:{hi}"))
    if not TOL_FLOOR <= args.tol <= 1e-2:
        raise SystemExit(_usage_error(
            f"tol must lie in [{TOL_FLOOR:g}, 1e-2], got {args.tol}"))
    if args.command != "spectrum":
        from .specfun import MAX_COUPLING, MIN_COUPLING

        if not abs(args.g) <= MAX_COUPLING:
            raise SystemExit(_usage_error(
                f"{args.command} needs |g| <= {MAX_COUPLING!r}, where the "
                f"Laguerre seed e^(-2 g^2) is still a normal double; got {args.g!r}"))
        if 0.0 < abs(args.g) < MIN_COUPLING:
            raise SystemExit(_usage_error(
                f"{args.command} needs g = 0 or |g| >= {MIN_COUPLING!r}, where the "
                f"Laguerre argument 4 g^2 is still a normal double; got {args.g!r}"))
    if args.command == "verify" and args.nmax < _NMAX_MIN:
        raise SystemExit(_usage_error(
            f"verify needs --nmax >= {_NMAX_MIN}, so that laguerre_bound's early "
            f"window n <= nmax // 10 holds a full oscillation of w_n(1); "
            f"got {args.nmax}"))


def _usage_error(message):
    sys.stderr.write(f"jacspec: error: {message}\n")
    return _EXIT_USAGE


def _config_dict(args):
    return {
        "command": args.command,
        "g": args.g,
        "c1": args.c1,
        "c2": args.c2,
        "n_lo": args.n[0],
        "n_hi": args.n[1],
        "tol": args.tol,
        "format": args.format,
    }


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_table(args, header, rows, fits=None, checks=None):
    with _output(args.out) as fh:
        if args.format == "json":
            payload = {
                "config": _config_dict(args),
                "rows": [dict(zip(header, row)) for row in rows],
                "fits": fits or {},
                "checks": checks or [],
            }
            json.dump(payload, fh, indent=2)
            fh.write("\n")
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    if fits is not None:
        sys.stdout.write(json.dumps({"fits": fits}) + "\n")


@contextlib.contextmanager
def _output(path):
    if path:
        with open(path, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def cmd_spectrum(args):
    from .eigensolve import SpectralRequest, converged_spectrum
    from .model import ModelParams

    spectrum = converged_spectrum(
        ModelParams(g=args.g, c1=args.c1, c2=args.c2),
        SpectralRequest(n_lo=args.n[0], n_hi=args.n[1], tol=args.tol),
    )
    header = ["n", "lambda", "truncation_n", "est_error", "converged"]
    rows = [
        (n, float(spectrum.values[i]), spectrum.truncation_N,
         float(spectrum.est_error[i]), bool(spectrum.converged[i]))
        for i, n in enumerate(spectrum.indices)
    ]
    _emit_table(args, header, rows)
    return 0 if bool(spectrum.converged.all()) else _EXIT_UNCONVERGED


def _fit_or_none(pairs):
    from .asymptotics import fit_decay

    try:
        fit = fit_decay(pairs)
    except ValueError:
        return None
    return {
        "c": fit.C,
        "alpha": fit.alpha,
        "residual_rms": fit.residual_rms,
        "n_range": list(fit.n_range),
        "dropped": fit.dropped,
    }


def cmd_asymptotics(args):
    from .asymptotics import residual_table
    from .model import ModelParams

    rows_data = residual_table(
        ModelParams(g=args.g, c1=args.c1, c2=args.c2), *args.n, tol=args.tol
    )
    header = ["n", "lambda", "first_order", "diag_corr", "r1", "r2",
              "s_n", "s_n_tail_bound"]
    rows = [
        (r.n, r.lam, r.first_order, r.diag_corr, r.r1, r.r2, r.s_n, r.s_n_tail_bound)
        for r in rows_data
    ]
    floor = 10.0 * args.tol
    fits = {
        "r1": _fit_or_none([(r.n, abs(r.r1)) for r in rows_data
                            if r.n >= 1 and abs(r.r1) >= floor]),
        "r2": _fit_or_none([(r.n, abs(r.r2)) for r in rows_data
                            if r.n >= 1 and abs(r.r2) >= floor]),
        "s_n": _fit_or_none([(r.n, r.s_n) for r in rows_data if r.n >= 1]),
    }
    _emit_table(args, header, rows, fits=fits)
    return 0 if all(r.converged for r in rows_data) else _EXIT_UNCONVERGED


def cmd_verify(args):
    import numpy as np

    from . import diagonalize

    g = args.g
    lo, hi, count = args.xgrid
    reports = [
        diagonalize.check_bessel_bound(
            args.smax, np.logspace(np.log10(lo), np.log10(hi), count)),
        *(diagonalize.check_laguerre_bound(x, [0, 1], args.nmax)
          for x in (sorted({1.0, 4.0 * g * g}) if g != 0.0 else [1.0])),
        diagonalize.check_offset_decay(g, _DEFAULTS["offset_pmax"],
                                       _DEFAULTS["offset_blocks"],
                                       _DEFAULTS["offset_ntop"]),
    ]
    # built only now, so that its N x N arrays and the Laguerre tables
    # above never occupy memory together
    bundle = diagonalize.build_bundle(g, _DEFAULTS["similarity_n"])
    reports += [
        diagonalize.check_similarity(bundle),
        diagonalize.check_k_antisymmetry(bundle),
        diagonalize.check_commutator_identity(bundle),
        diagonalize.check_orthonormality(g, _DEFAULTS["orthonormality_nmax"]),
        diagonalize.check_rtilde_symmetry(bundle),
    ]
    header = ["name", "status", "metric", "note"]
    rows = [(r.name, r.status, r.max_ratio, r.note) for r in reports]
    for name, status, metric, _ in rows:
        sys.stdout.write(f"{status:>12} {name} metric={metric!r}\n")
    if args.format == "json" or args.out:
        _emit_table(args, header, rows, checks=[dict(zip(header, row)) for row in rows])
    return 0 if all(r.passed for r in reports) else _EXIT_CHECK_FAILED


def cmd_oracle(args):
    import numpy as np

    from .model import (
        build_dense_rtilde,
        r_tilde_oracle_finite_sum,
        r_tilde_oracle_sum_block,
        u_columns,
        u_element_contour_block,
    )

    cap, g = args.cap, args.g
    if not 0 <= cap <= 30:
        return _usage_error(f"oracle caps must lie in [0, 30], got {cap}")
    idx = np.arange(cap + 1)
    closed_u = u_columns(idx, g, cap)
    closed_rt = build_dense_rtilde(cap + 1, g)
    contour = u_element_contour_block(idx, idx, g, args.points)
    K = cap + 80
    while True:
        try:
            conj_sum = r_tilde_oracle_sum_block(idx, idx, g, K)
            break
        except ValueError:
            if K == _ORACLE_K_MAX:
                raise
            K = min(2 * K, _ORACLE_K_MAX)
    finite = np.array([[r_tilde_oracle_finite_sum(a, b, g) for b in range(cap + 1)]
                       for a in range(cap + 1)])
    rows = [("u_contour_vs_closed", float(np.max(np.abs(closed_u - contour)))),
            ("rtilde_sum_vs_closed", float(np.max(np.abs(closed_rt - conj_sum)))),
            ("rtilde_finite_sum_vs_closed", float(np.max(np.abs(closed_rt - finite))))]
    for name, dev in rows:
        sys.stdout.write(f"{name} max_deviation={dev!r}\n")
    if args.format == "json" or args.out:
        _emit_table(args, ["check", "max_deviation"], rows)
    ok = all(dev < _DEFAULTS["oracle_tol"] for _, dev in rows)
    return 0 if ok else _EXIT_CHECK_FAILED


def _apply_thread_cap():
    raw = os.environ.get("JS_THREADS", "")
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        return
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, str(n))


def main(argv=None):
    _apply_thread_cap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else _EXIT_USAGE
    if args.defaults:
        sys.stdout.write(json.dumps(_DEFAULTS, indent=2, sort_keys=True) + "\n")
        return 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return _EXIT_USAGE
    commands = {"spectrum": cmd_spectrum, "asymptotics": cmd_asymptotics,
                "verify": cmd_verify, "oracle": cmd_oracle}
    try:
        _check_args(args)
        return commands[args.command](args)
    except SystemExit as exc:
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        return _usage_error(str(exc))


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
