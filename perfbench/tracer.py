"""In-memory spans around the public functions of the jacspec modules.

``Tracer.install`` replaces every public function of each module, at
every module attribute it is bound to (``from .x import f`` makes a
second binding), with a wrapper that records one span per call.  Calls
inside a module that go through its globals reach the wrappers too, so
spans nest exactly as the calls do.  Spans stay in memory; ``per_round``
turns them into the per-layer metrics once the run has ended.
"""

import functools
import inspect
import time

# per-layer metric name -> unit, in report order
METRICS = {
    "eigensolve.self_s": "s",
    "eigensolve.s_per_eig": "s",
    "eigensolve.calls": "count",
    "eigensolve.truncation_N": "rows",
    "eigensolve.doublings": "count",
    "model.self_s": "s",
    "model.calls": "count",
    "model.build_A_rows": "rows",
    "specfun.self_s": "s",
    "specfun.table_cells": "count",
    "specfun.bessel_calls": "count",
    "specfun.scalar_calls": "count",
    "asymptotics.self_s": "s",
    "asymptotics.s_sweep_s": "s",
    "asymptotics.fit_s": "s",
    "diagonalize.self_s": "s",
    "diagonalize.bundle_s": "s",
    "diagonalize.similarity_s": "s",
    "diagonalize.checks_s": "s",
    "diagonalize.grid_points": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}

# inclusive span time of these functions (none of them recurses)
_INCLUSIVE = {
    "asymptotics.remainder_s_sweep": "asymptotics.s_sweep_s",
    "asymptotics.fit_decay": "asymptotics.fit_s",
    "diagonalize.build_bundle": "diagonalize.bundle_s",
    "diagonalize.verify_similarity": "diagonalize.similarity_s",
    "diagonalize.check_bessel_bound": "diagonalize.checks_s",
    "diagonalize.check_laguerre_bound": "diagonalize.checks_s",
    "diagonalize.check_offset_decay": "diagonalize.checks_s",
}

_SCALAR = ("specfun.laguerre_function", "specfun.laguerre_polynomial",
           "specfun.log_gamma")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_result(name, args, kwargs, result):
    """Work counts read off one call's arguments or result."""
    if name == "eigensolve.converged_spectrum":
        return {"eigs": len(result.indices),
                "eigensolve.truncation_N": result.truncation_N,
                "eigensolve.doublings": len(result.history)}
    if name == "model.build_A":
        return {"model.build_A_rows": _arg(args, kwargs, 1, "N")}
    if name == "specfun.laguerre_function_table":
        n_max = _arg(args, kwargs, 0, "n_max")
        s_max = _arg(args, kwargs, 1, "s_max")
        return {"specfun.table_cells": (n_max + 1) * (s_max + 1)}
    if name.startswith("diagonalize.check_"):
        return {"diagonalize.grid_points": result.grid_size}
    return None


class Tracer:
    """Records spans (name, parent, round, start, end) and work counts."""

    def __init__(self):
        self.round = 0
        self.spans = []      # (index, parent index, name, round, t0, t1)
        self.counts = []     # (round, key, value)
        self._stack = []
        self._next = 0

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((idx, parent, name, self.round, t0, t1))
            counts = _count_result(name, args, kwargs, result)
            if counts:
                self.counts.extend((self.round, k, v) for k, v in counts.items())
            return result
        return traced

    def install(self, modules):
        """Wrap each module's public functions at every binding.

        ``modules`` maps layer name to module.  ``cli`` has no
        ``__all__``; its entry point ``main`` is its span.
        """
        wrappers = {}
        for layer, mod in modules.items():
            for attr in ["main"] if layer == "cli" else mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def per_round(self, rounds, output_bytes):
        """Per-layer metrics of each round, as a list of dicts.

        Self time is a span's duration minus that of its child spans.
        A call counts for ``calls`` when its caller is in another layer.
        """
        name_of = {idx: name for idx, _, name, _, _, _ in self.spans}
        child_time = {}
        for _, parent, _, _, t0, t1 in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        out = [dict.fromkeys(METRICS, 0.0) for _ in range(rounds)]
        eigs = [0] * rounds
        for idx, parent, name, rnd, t0, t1 in self.spans:
            layer = name.split(".", 1)[0]
            row = out[rnd]
            row[f"{layer}.self_s"] += (t1 - t0) - child_time.get(idx, 0.0)
            if parent < 0 or name_of[parent].split(".", 1)[0] != layer:
                if layer in ("eigensolve", "model"):
                    row[f"{layer}.calls"] += 1
                elif name == "specfun.bessel_j":
                    row["specfun.bessel_calls"] += 1
                elif name in _SCALAR:
                    row["specfun.scalar_calls"] += 1
            if name in _INCLUSIVE:
                row[_INCLUSIVE[name]] += t1 - t0
        for rnd, key, value in self.counts:
            if key == "eigs":
                eigs[rnd] += value
            else:
                out[rnd][key] += value
        for rnd, row in enumerate(out):
            row["eigensolve.s_per_eig"] = (
                row["eigensolve.self_s"] / eigs[rnd] if eigs[rnd] else 0.0)
            row["cli.output_bytes"] = output_bytes[rnd]
        return out
