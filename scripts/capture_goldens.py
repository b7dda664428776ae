#!/usr/bin/env python3
"""Write the golden CLI outputs that tests/test_golden.py reads.

Runs each command at its defaults for every coupling in GOLDEN_G, in CSV
and in JSON, and writes `<command>_g<g>.<format>` into the output
directory (default: tests/golden).  Recapture only when a change of the
reported numbers is intended, and say why in CHANGES.md.

With --check, nothing in the output directory is written: the outputs
are captured into a temporary directory and compared byte for byte with
it, and the script exits 1 listing every file that differs or is
missing.  Byte identity holds on the machine that captured the goldens.
"""

import argparse
import contextlib
import filecmp
import io
import pathlib
import sys
import tempfile
import warnings

from jacspec import cli

GOLDEN_G = ("0", "0.3", "0.5", "1.2", "2.0")
COMMANDS = ("spectrum", "asymptotics", "verify", "oracle")
FORMATS = ("csv", "json")


def golden_name(command, g, fmt):
    return f"{command}_g{g}.{fmt}"


def capture(out_dir, verbose=True):
    """Write every golden into out_dir; returns the file names."""
    names = []
    for command in COMMANDS:
        for g in GOLDEN_G:
            for fmt in FORMATS:
                name = golden_name(command, g, fmt)
                path = out_dir / name
                # asymptotics warns at g = 0, where it compares a diagonal operator
                with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main([command, "--g", g, "--format", fmt, "--out", str(path)])
                if verbose:
                    print(f"{path} (exit {code})")
                names.append(name)
    return names


def check(golden_dir):
    """Names of the goldens in golden_dir that a fresh capture does not reproduce."""
    with tempfile.TemporaryDirectory() as tmp:
        fresh = pathlib.Path(tmp)
        names = capture(fresh, verbose=False)
        return [name for name in names
                if not (golden_dir / name).is_file()
                or not filecmp.cmp(fresh / name, golden_dir / name, shallow=False)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", nargs="?",
                    default=str(pathlib.Path(__file__).parents[1] / "tests" / "golden"))
    ap.add_argument("--check", action="store_true",
                    help="compare a fresh capture with out_dir instead of writing it")
    args = ap.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    if not args.check:
        out_dir.mkdir(parents=True, exist_ok=True)
        capture(out_dir)
        return 0
    differ = check(out_dir)
    for name in differ:
        print(f"differs: {out_dir / name}")
    total = len(COMMANDS) * len(GOLDEN_G) * len(FORMATS)
    print(f"{total - len(differ)} of {total} goldens reproduced byte for byte")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
