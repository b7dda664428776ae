#!/usr/bin/env python3
"""Write the golden CLI outputs that tests/test_golden.py reads.

Runs each command at its defaults for every coupling in GOLDEN_G, in CSV
and in JSON, and writes `<command>_g<g>.<format>` into the output
directory (default: tests/golden).  Recapture only when a change of the
reported numbers is intended, and say why in CHANGES.md.
"""

import argparse
import contextlib
import io
import pathlib

from jacspec import cli

GOLDEN_G = ("0", "0.3", "0.5", "1.2", "2.0")
COMMANDS = ("spectrum", "asymptotics", "verify", "oracle")
FORMATS = ("csv", "json")


def golden_name(command, g, fmt):
    return f"{command}_g{g}.{fmt}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_dir", nargs="?",
                    default=str(pathlib.Path(__file__).parents[1] / "tests" / "golden"))
    out_dir = pathlib.Path(ap.parse_args().out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for command in COMMANDS:
        for g in GOLDEN_G:
            for fmt in FORMATS:
                path = out_dir / golden_name(command, g, fmt)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--g", g, "--format", fmt, "--out", str(path)])
                print(f"{path} (exit {code})")


if __name__ == "__main__":
    main()
