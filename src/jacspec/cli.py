"""Batch command-line front end with CSV/JSON output.

Subcommands: spectrum, asymptotics, verify, oracle.  Fully
deterministic: identical invocations produce byte-identical output.
Heavy imports happen inside main() so the JS_THREADS cap can take
effect before numpy loads its BLAS.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass

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

_EXIT_USAGE = 1
_EXIT_UNCONVERGED = 2
_EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_EXIT_USAGE)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: command, model parameters, range, output."""

    command: str
    g: float
    c1: float
    c2: float
    n_lo: int
    n_hi: int
    tol: float
    output_format: str
    output_path: str


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
    if not (0.0 < lo < hi and count >= 2):
        raise argparse.ArgumentTypeError(
            f"grid needs 0 < lo < hi and count >= 2, got {text!r}"
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


def _make_config(args):
    lo, hi = args.n
    if not (0 <= lo <= hi):
        raise SystemExit(_usage_error(f"invalid index range {lo}:{hi}"))
    if not 1e-12 <= args.tol <= 1e-2:
        raise SystemExit(_usage_error(f"tol must lie in [1e-12, 1e-2], got {args.tol}"))
    if args.command != "spectrum":
        from .specfun import MAX_COUPLING

        if not abs(args.g) <= MAX_COUPLING:
            raise SystemExit(_usage_error(
                f"{args.command} needs |g| <= {MAX_COUPLING!r}, where the "
                f"Laguerre seed e^(-2 g^2) is still a normal double; got {args.g!r}"))
    return RunConfig(
        command=args.command,
        g=args.g,
        c1=args.c1,
        c2=args.c2,
        n_lo=lo,
        n_hi=hi,
        tol=args.tol,
        output_format=args.format,
        output_path=args.out,
    )


def _usage_error(message):
    sys.stderr.write(f"jacspec: error: {message}\n")
    return _EXIT_USAGE


def _config_dict(cfg):
    return {
        "command": cfg.command,
        "g": cfg.g,
        "c1": cfg.c1,
        "c2": cfg.c2,
        "n_lo": cfg.n_lo,
        "n_hi": cfg.n_hi,
        "tol": cfg.tol,
        "format": cfg.output_format,
    }


def _format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_table(cfg, header, rows, fits=None, checks=None):
    with _output(cfg.output_path) as fh:
        if cfg.output_format == "json":
            payload = {
                "config": _config_dict(cfg),
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


def cmd_spectrum(cfg):
    from .eigensolve import SpectralRequest, converged_spectrum
    from .model import ModelParams

    spectrum = converged_spectrum(
        ModelParams(g=cfg.g, c1=cfg.c1, c2=cfg.c2),
        SpectralRequest(n_lo=cfg.n_lo, n_hi=cfg.n_hi, tol=cfg.tol),
    )
    header = ["n", "lambda", "truncation_n", "est_error", "converged"]
    rows = [
        (n, float(spectrum.values[i]), spectrum.truncation_N,
         float(spectrum.est_error[i]), bool(spectrum.converged[i]))
        for i, n in enumerate(spectrum.indices)
    ]
    _emit_table(cfg, header, rows)
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


def cmd_asymptotics(cfg):
    from .asymptotics import residual_table
    from .model import ModelParams

    rows_data = residual_table(
        ModelParams(g=cfg.g, c1=cfg.c1, c2=cfg.c2), cfg.n_lo, cfg.n_hi, tol=cfg.tol
    )
    header = ["n", "lambda", "first_order", "diag_corr", "r1", "r2",
              "s_n", "s_n_tail_bound"]
    rows = [
        (r.n, r.lam, r.first_order, r.diag_corr, r.r1, r.r2, r.s_n, r.s_n_tail_bound)
        for r in rows_data
    ]
    floor = 10.0 * cfg.tol
    fits = {
        "r1": _fit_or_none([(r.n, abs(r.r1)) for r in rows_data
                            if r.n >= 1 and abs(r.r1) >= floor]),
        "r2": _fit_or_none([(r.n, abs(r.r2)) for r in rows_data
                            if r.n >= 1 and abs(r.r2) >= floor]),
        "s_n": _fit_or_none([(r.n, r.s_n) for r in rows_data if r.n >= 1]),
    }
    _emit_table(cfg, header, rows, fits=fits)
    return 0 if all(r.converged for r in rows_data) else _EXIT_UNCONVERGED


def cmd_verify(cfg, smax, xgrid, nmax):
    import numpy as np

    from . import diagonalize
    from .model import u_column_mass

    lo, hi, count = xgrid
    checks = []

    report = diagonalize.check_bessel_bound(
        smax, np.logspace(np.log10(lo), np.log10(hi), count)
    )
    checks.append(_check_entry("bessel_bound", report.passed,
                               report.max_ratio, report.note))

    xs = sorted({1.0, 4.0 * cfg.g * cfg.g}) if cfg.g != 0.0 else [1.0]
    for x in xs:
        report = diagonalize.check_laguerre_bound(x, [0, 1], nmax)
        checks.append(_check_entry(f"laguerre_bound(x={x:g})", report.passed,
                                   report.max_ratio, report.note))

    report = diagonalize.check_offset_decay(cfg.g, _DEFAULTS["offset_pmax"],
                                            _DEFAULTS["offset_blocks"],
                                            _DEFAULTS["offset_ntop"])
    if report.note.startswith("skipped"):
        checks.append({"name": "offset_decay", "status": "SKIPPED(g=0)",
                       "metric": 0.0, "note": report.note})
    else:
        checks.append(_check_entry("offset_decay", report.passed,
                                   report.max_ratio, report.note))

    bundle = diagonalize.build_bundle(cfg.g, _DEFAULTS["similarity_n"])
    defect = diagonalize.verify_similarity(bundle)
    anti = float(np.max(np.abs(bundle.K + bundle.K.T)))
    comm = float(np.max(np.abs(bundle.K * (np.arange(bundle.N)[:, None]
                                           - np.arange(bundle.N)[None, :])
                               - bundle.R1)))
    checks.append(_check_entry("similarity_defect", defect < 1e-10, defect))
    checks.append(_check_entry("k_antisymmetry", anti == 0.0, anti))
    checks.append(_check_entry("commutator_identity", comm == 0.0, comm))

    worst_mass = 0.0
    for n in range(0, _DEFAULTS["orthonormality_nmax"] + 1, 10):
        mass, _ = u_column_mass(n, cfg.g, tol=1e-10)
        worst_mass = max(worst_mass, abs(1.0 - mass))
    checks.append(_check_entry("orthonormality", worst_mass < 1e-9, worst_mass))

    asym = float(np.max(np.abs(bundle.Rt - bundle.Rt.T)))
    checks.append(_check_entry("rtilde_symmetry", asym == 0.0, asym))

    for entry in checks:
        sys.stdout.write(
            f"{entry['status']:>12} {entry['name']} metric={entry['metric']!r}\n"
        )
    if cfg.output_format == "json" or cfg.output_path:
        _emit_table(cfg, ["name", "status", "metric", "note"],
                    [(c["name"], c["status"], c["metric"], c.get("note", ""))
                     for c in checks],
                    checks=checks)
    failed = any(c["status"] == "FAIL" for c in checks)
    return _EXIT_CHECK_FAILED if failed else 0


def _check_entry(name, ok, metric, note=""):
    return {"name": name, "status": "PASS" if ok else "FAIL",
            "metric": float(metric), "note": note}


def cmd_oracle(cfg, cap, points):
    import numpy as np

    from .model import (
        build_dense_rtilde,
        r_tilde_oracle_finite_sum,
        r_tilde_oracle_sum_block,
        u_columns,
        u_element_contour_block,
    )

    if not 0 <= cap <= 30:
        return _usage_error(f"oracle caps must lie in [0, 30], got {cap}")
    idx = np.arange(cap + 1)
    closed_u = u_columns(idx, cfg.g, cap)
    closed_rt = build_dense_rtilde(cap + 1, cfg.g)
    contour = u_element_contour_block(idx, idx, cfg.g, points)
    conj_sum = r_tilde_oracle_sum_block(idx, idx, cfg.g, cap + 80)
    finite = np.array([[r_tilde_oracle_finite_sum(a, b, cfg.g) for b in range(cap + 1)]
                       for a in range(cap + 1)])
    rows = [("u_contour_vs_closed", float(np.max(np.abs(closed_u - contour)))),
            ("rtilde_sum_vs_closed", float(np.max(np.abs(closed_rt - conj_sum)))),
            ("rtilde_finite_sum_vs_closed", float(np.max(np.abs(closed_rt - finite))))]
    for name, dev in rows:
        sys.stdout.write(f"{name} max_deviation={dev!r}\n")
    if cfg.output_format == "json" or cfg.output_path:
        _emit_table(cfg, ["check", "max_deviation"], rows)
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
    try:
        cfg = _make_config(args)
        if cfg.command == "spectrum":
            return cmd_spectrum(cfg)
        if cfg.command == "asymptotics":
            return cmd_asymptotics(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg, args.smax, args.xgrid, args.nmax)
        return cmd_oracle(cfg, args.cap, args.points)
    except SystemExit as exc:
        return exc.code
    except (ValueError, ArithmeticError) as exc:
        return _usage_error(str(exc))


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
