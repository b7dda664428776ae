"""Self-test of the benchmark (takes about a minute; table_wide runs once).

    python3 perfbench/selftest.py

Checks that a shortened run of each workload passes every check, that
perturbed outputs are caught, that the known-failing g=0 request is
reported as a failed operation rather than crashing the runner, that
the traced run reports every per-layer metric, and that the benchmark
refuses to run without the jacspec sources.
"""

import csv
import io
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import KNOWN_FAILING, TOL, WORKLOADS, argv_for, make_requests  # noqa: E402


def _argv_request(req):
    return dict(req, argv=argv_for(req))


def _one_round(requests, trace=False):
    """Run each request once in a worker; return (records, final record)."""
    return run.run_worker(requests, 0.0, trace, run.child_env(),
                          time.monotonic() + run.DEADLINE_S)


class ShortRuns(unittest.TestCase):
    def test_each_workload_passes_its_checks(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                out = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", "11", "--seconds", "0.1", "--trace", "0"],
                    capture_output=True, text=True, cwd=run.ROOT, timeout=180)
                self.assertEqual(out.returncode, 0, out.stderr)
                res = json.loads(out.stdout.splitlines()[-1])
                self.assertTrue(res["correct"], out.stderr)
                known = 1 if name == "slices_many" else 0
                self.assertEqual(res["failed"], known * res["attempted"] // 25, out.stderr)
                self.assertEqual(set(res["metrics"]), set(run.END_TO_END))
                for metric in res["metrics"].values():
                    self.assertGreater(metric["value"], 0.0)


class PerturbedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        slice_req = make_requests("slices_many", 3)[0]
        table_req = _argv_request({
            "kind": "asymptotics", "g": 0.5, "c1": 1.0, "c2": 0.0, "n_lo": 16,
            "n_hi": 300, "tol": TOL, "format": "json", "dc_sample": [20, 150],
            "sn_sample": [31, 175]})
        cls.requests = [slice_req, table_req] + make_requests("certify", 3)[:2]
        records, _ = _one_round(cls.requests)
        cls.outputs = [(rec["code"], rec["stdout"]) for rec in records]
        cls.refs = [checks.reference(req) for req in cls.requests]

    def problems(self, i, stdout=None):
        code, out = self.outputs[i]
        return checks.check(self.requests[i], code, out if stdout is None else stdout,
                            self.refs[i])

    def test_unperturbed_outputs_pass(self):
        for i in range(len(self.requests)):
            self.assertEqual(self.problems(i), [])

    def test_shifted_eigenvalue_is_caught(self):
        rows = list(csv.reader(io.StringIO(self.outputs[0][1])))
        rows[-1][1] = repr(float(rows[-1][1]) + 10 * TOL)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        self.assertTrue(self.problems(0, buf.getvalue()))

    def test_scaled_s_n_is_caught(self):
        doc = json.loads(self.outputs[1][1])
        doc["rows"][175 - 16]["s_n"] *= 1.0 + 1e-6
        self.assertTrue(any("s_n at n=175" in p
                            for p in self.problems(1, json.dumps(doc))))

    def test_shifted_table_eigenvalue_is_caught(self):
        doc = json.loads(self.outputs[1][1])
        doc["rows"][100]["lambda"] += 10 * TOL
        self.assertTrue(self.problems(1, json.dumps(doc)))

    def test_failed_lemma_check_is_caught(self):
        out = self.outputs[2][1].replace("PASS orthonormality", "FAIL orthonormality")
        self.assertTrue(self.problems(2, out))

    def test_large_oracle_deviation_is_caught(self):
        out = "\n".join(line.split("=")[0] + "=1e-08"
                        for line in self.outputs[3][1].splitlines())
        self.assertTrue(self.problems(3, out))


class KnownFailingRequest(unittest.TestCase):
    def test_g0_is_a_failed_operation_not_a_runner_crash(self):
        req = _argv_request(KNOWN_FAILING)
        records, _ = _one_round([req])
        attempted, failed, correct, _, problems = run.judge([req], records, {})
        self.assertEqual(attempted, 1)
        if records[0]["error"] is not None:
            # the program raises on the tied eigenvalues 1, 1, 3, 3
            self.assertIn("AssertionError", records[0]["error"])
            self.assertEqual((failed, correct), (1, True))
        else:
            # once the program returns the sorted diagonal, it must pass
            self.assertEqual((failed, correct), (0, True), problems)


class TracedRun(unittest.TestCase):
    def test_every_binding_is_wrapped(self):
        sys.path.insert(0, str(run.SRC))
        from jacspec import asymptotics, cli, diagonalize, eigensolve, model, specfun

        Tracer().install({"cli": cli, "eigensolve": eigensolve, "model": model,
                          "specfun": specfun, "asymptotics": asymptotics,
                          "diagonalize": diagonalize})
        for mod, attr, home in ((asymptotics, "converged_spectrum", eigensolve),
                                (eigensolve, "build_A", model),
                                (diagonalize, "build_dense_rtilde", model),
                                (diagonalize, "dyadic_block_maxima", asymptotics)):
            self.assertTrue(hasattr(getattr(mod, attr), "__wrapped__"), attr)
            self.assertIs(getattr(mod, attr), getattr(home, attr))

    def test_layers_and_counts(self):
        requests = [make_requests("slices_many", 5)[0], make_requests("certify", 5)[1]]
        _, final = _one_round(requests, trace=True)
        (layers,) = final["layers"]
        self.assertEqual(set(layers), set(METRICS))
        self.assertEqual(layers["eigensolve.calls"], 1)
        self.assertGreater(layers["eigensolve.truncation_N"], 0)
        self.assertGreater(layers["model.build_A_rows"], 0)
        self.assertGreater(layers["specfun.scalar_calls"], 0)

    def test_certify_never_calls_the_solver(self):
        _, final = _one_round(make_requests("certify", 5)[:2], trace=True)
        (layers,) = final["layers"]
        self.assertEqual(layers["eigensolve.calls"], 0)
        self.assertGreater(layers["diagonalize.grid_points"], 0)
        self.assertGreater(layers["specfun.bessel_calls"], 0)


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        bare = run.OUT_DIR / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "certify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
