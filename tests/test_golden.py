"""CLI output at its defaults against goldens captured before a change.

tests/golden holds `<command>_g<g>.<format>` files written by
scripts/capture_goldens.py for `spectrum`, `asymptotics`, `verify` and
`oracle`.  Each one is regenerated here and compared cell by cell:
names, statuses, notes and every exactly-zero number must be identical,
and every other number must agree to 1e-12 relative.
"""

import csv
import importlib.util
import json
import math
import pathlib
import re
import warnings

import pytest

from jacspec import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("spectrum", "asymptotics", "verify", "oracle")
GOLDEN_NAME = re.compile(r"^(%s)_g(.+)\.(csv|json)$" % "|".join(COMMANDS))
GOLDENS = sorted(p.name for p in GOLDEN_DIR.iterdir() if GOLDEN_NAME.match(p.name))
REL = 1e-12


def _float_or_none(text):
    try:
        return float(text)
    except ValueError:
        return None


def _same_number(got, want):
    if want == 0.0:
        return got == 0.0
    return math.isfinite(got) and abs(got - want) <= REL * abs(want)


def _compare(got, want, where):
    if isinstance(want, bool) or not isinstance(want, (float, int, dict, list)):
        assert got == want, where
    elif isinstance(want, float):
        assert isinstance(got, float) and _same_number(got, want), (where, got, want)
    elif isinstance(want, int):
        assert got == want and type(got) is int, where
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    else:
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _compare(a, b, f"{where}[{i}]")


def _compare_csv(got_text, want_text, where):
    got = list(csv.reader(got_text.splitlines()))
    want = list(csv.reader(want_text.splitlines()))
    assert len(got) == len(want) and got[0] == want[0], where
    for r, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(got_row) == len(want_row), (where, r)
        for got_cell, want_cell in zip(got_row, want_row):
            want_num = _float_or_none(want_cell)
            if want_num is None:
                assert got_cell == want_cell, (where, r)
            else:
                got_num = _float_or_none(got_cell)
                assert got_num is not None and _same_number(got_num, want_num), \
                    (where, r, got_cell, want_cell)


def test_goldens_cover_every_command_and_format():
    kinds = {GOLDEN_NAME.match(name).group(1, 3) for name in GOLDENS}
    assert kinds == {(c, f) for c in COMMANDS for f in ("csv", "json")}
    assert len(GOLDENS) == 40


@pytest.mark.parametrize("name", GOLDENS)
def test_output_matches_golden(name, tmp_path, capsys):
    command, g, fmt = GOLDEN_NAME.match(name).groups()
    out = tmp_path / name
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # asymptotics at g = 0 warns
        code = cli.main([command, "--g", g, "--format", fmt, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    want = (GOLDEN_DIR / name).read_text()
    if fmt == "json":
        _compare(json.loads(out.read_text()), json.loads(want), name)
    else:
        _compare_csv(out.read_text(), want, name)


def _capture_script():
    path = pathlib.Path(__file__).parents[1] / "scripts" / "capture_goldens.py"
    spec = importlib.util.spec_from_file_location("capture_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_capture_check_lists_the_files_that_differ(tmp_path, capsys):
    script = _capture_script()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        names = script.capture(tmp_path, verbose=False)
        assert sorted(names) == GOLDENS
        changed, missing = "spectrum_g0.5.csv", "oracle_g2.0.json"
        (tmp_path / changed).write_text((tmp_path / changed).read_text() + " ")
        (tmp_path / missing).unlink()
        code = script.main(["--check", str(tmp_path)])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out == [f"differs: {tmp_path / changed}", f"differs: {tmp_path / missing}",
                   "38 of 40 goldens reproduced byte for byte"]
    assert not (tmp_path / missing).exists()
