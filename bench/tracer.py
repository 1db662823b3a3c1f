"""Per-layer spans recorded from outside the program.

The tracer wraps the public functions of each ``gaussian_paths`` module
(the layers) by rebinding every module attribute that refers to them, so
calls between modules pass through the wrappers as well.  Nothing in the
package itself changes; ``restore`` puts the original functions back.

Per span name it counts the outermost calls and their busy time.  Spans
named ``cli.*`` also accumulate ``cli.self_s``: their duration minus the
part covered by spans of the other layers, in any thread.  The span of
``run_dsep`` records how much its grid builds overlap in time.
"""
from __future__ import annotations

import functools
import threading
from collections import defaultdict
from time import perf_counter


class _CountingStream:
    """Text stream proxy that counts what the CSV writers write (ASCII only)."""

    def __init__(self, stream):
        self._stream = stream
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return self._stream.write(text)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _samples(args, kwargs, result, error):
    return {"samples": 0 if result is None else len(result.times)}


def _nodes(args, kwargs, result, error):
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    return {"nodes": int(getattr(omega, "size", 1))}


def _failed(args, kwargs, result, error):
    return {"failed": int(error is not None)}


def _inconclusive(args, kwargs, result, error):
    return {"inconclusive": int(type(error).__name__ == "InconclusiveThresholdError")}


def _sweep_rows(args, kwargs, result, error):
    rows = result or []
    return {"rows": len(rows), "rows_failed": sum(r.d_sep is None for r in rows)}


# span name -> (module, function) pairs it covers, and its extra counters
SPANS = {
    "spectral_env.evaluate_j": ([("spectral_env", "evaluate_j")], _nodes),
    "coefficients.build_grid": ([("coefficients", "build_coefficient_grid")], _samples),
    "coefficients.gamma_markov": ([("coefficients", "gamma_markov")], _failed),
    "coefficients.write_csv": ([("coefficients", "write_coefficients_csv")], None),
    "dynamics.simulate_trajectory": ([("dynamics", "simulate_trajectory")], _samples),
    "dynamics.separability_time": ([("dynamics", "separability_time")], _inconclusive),
    "dynamics.constant_of_motion": ([("dynamics", "constant_of_motion")], None),
    "dynamics.reachable": ([("dynamics", "reachable_markovian"),
                            ("dynamics", "reachable_secular")], None),
    "dynamics.write_trajectory_csv": ([("dynamics", "write_trajectory_csv")], None),
    "gaussian_core.path_point": ([("gaussian_core", "path_point")], None),
    "gaussian_core.gaussian_discord": ([("gaussian_core", "gaussian_discord")], None),
    "paths.extract_path": ([("paths", "extract_path")], None),
    "paths.compare_paths": ([("paths", "compare_paths")], None),
    "paths.dsep_from_trajectory": ([("paths", "dsep_from_trajectory")], None),
    "paths.dsep_sweep": ([("paths", "dsep_sweep")], _sweep_rows),
    "paths.write_csv": ([("paths", "write_path_csv"), ("paths", "write_sweep_csv")], None),
    "cli.coefficients": ([("cli", "run_coefficients")], None),
    "cli.simulate": ([("cli", "run_simulate")], None),
    "cli.dsep_sweep": ([("cli", "run_dsep")], None),
    "cli.verify": ([("cli", "run_verify")], None),
}
# span names whose second positional argument is the output stream
_WRITERS = {"coefficients.write_csv", "dynamics.write_trajectory_csv", "paths.write_csv"}
GRID_SPAN = "coefficients.build_grid"
DSEP_SPAN = "cli.dsep_sweep"


class Tracer:
    """Collects span counters while ``active``; inactive wrappers only forward."""

    def __init__(self):
        self.active = False
        self.values: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._layer_spans: list[tuple[float, float]] = []  # outermost non-cli spans
        self._grid_spans: list[tuple[float, float]] = []
        self._cli_open = 0  # cli spans in progress; layer spans matter only inside one
        self._saved: list[tuple[object, str, object]] = []

    def install(self, package) -> list[str]:
        """Wrap every function in SPANS wherever a package module binds it.

        Returns the functions the package no longer has; their spans count zero.
        """
        modules = [package] + [getattr(package, name) for name in
                               ("spectral_env", "coefficients", "dynamics",
                                "gaussian_core", "paths", "cli")]
        missing = []
        for span, (targets, extra) in SPANS.items():
            for mod_name, fn_name in targets:
                original = getattr(getattr(package, mod_name), fn_name, None)
                if original is None:
                    missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self._wrap(span, original, extra)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        return missing

    def restore(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def reset(self) -> None:
        self.values = defaultdict(float)
        self._layer_spans.clear()
        self._grid_spans.clear()

    def _wrap(self, span: str, fn, extra):
        is_cli = span.startswith("cli.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            outermost = span not in stack
            layer_top = not is_cli and all(s.startswith("cli.") for s in stack)
            counter = None
            if span in _WRITERS:
                if "stream" in kwargs:
                    counter = kwargs["stream"] = _CountingStream(kwargs["stream"])
                else:
                    counter = _CountingStream(args[1])
                    args = (args[0], counter) + args[2:]
            with self._lock:
                marks = (len(self._layer_spans), len(self._grid_spans))
                self._cli_open += is_cli
            stack.append(span)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._record(span, start, end, outermost, layer_top, marks,
                             extra(args, kwargs, result, error) if extra else {},
                             counter)

        return wrapper

    def _record(self, span, start, end, outermost, layer_top, marks, extra, counter):
        with self._lock:
            v = self.values
            if outermost:
                v[f"{span}.calls"] += 1
                v[f"{span}.busy_s"] += end - start
            for key, amount in extra.items():
                v[f"{span}.{key}"] += amount
            if counter is not None:
                v[f"{span}.bytes"] += counter.count
            if layer_top and self._cli_open:
                self._layer_spans.append((start, end))
            if span == GRID_SPAN:
                self._grid_spans.append((start, end))
            if span.startswith("cli."):
                self._cli_open -= 1
                covered = _union_length(self._layer_spans[marks[0]:], start, end)
                v["cli.self_s"] += (end - start) - covered
            if span == DSEP_SPAN:
                grids = self._grid_spans[marks[1]:]
                if grids:
                    v["dsep.grid_busy_s"] += sum(e - s for s, e in grids)
                    v["dsep.grid_window_s"] += (max(e for _, e in grids)
                                                - min(s for s, _ in grids))

    def metrics(self) -> dict[str, float]:
        """Counters of the spans recorded since the last reset."""
        out = dict(self.values)
        out.setdefault("cli.self_s", 0.0)
        window = out.pop("dsep.grid_window_s", 0.0)
        busy = out.pop("dsep.grid_busy_s", 0.0)
        out["cli.dsep_grid_overlap"] = busy / window if window > 0 else 0.0
        return out
