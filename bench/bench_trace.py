"""Per-layer tracing, installed from the benchmark's side of the program boundary.

Every public function of each ``fracbv`` module is wrapped, as are the
public methods of ``SourceProfile`` and ``PiecewiseProfile.__call__``.  A
wrapper replaces the function on every ``fracbv`` module attribute that
binds it, so calls between modules are seen too.  While a timed program call
runs, each wrapper records a span (name, start, end, parent span, check id)
and a call count; self time is a span's duration minus the time its child
spans cover.  ``Flux.f``/``Flux.df`` are per-instance callables called far
too often for spans: they are counted (calls and points) only.

Spans stay in memory, in flat arrays, and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "cli",
    "source",
    "flux",
    "fanprofile",
    "waves",
    "families",
    "variation",
    "godunov",
    "triangular",
    "keyfitz_kranzer",
)

SOURCE_METHODS = (
    "cumulative_source",
    "min_cumulative_source",
    "effective_time",
    "effective_time_limit",
    "effective_time_inverse",
)


def _count_samples(counters, args, kwargs, result):
    counters["variation.samples"] += len(result)


def _count_subdivision(counters, args, kwargs, result):
    counters["variation.subdivision_points"] += len(result.subdivision)


def _count_velocity_points(counters, args, kwargs, result):
    counters["triangular.transport_velocity.points"] += int(np.size(args[1]))


def _count_godunov_step(counters, args, kwargs, result):
    # one interface-flux evaluation per time step, over cells + 1 interfaces
    counters["godunov.steps"] += 1
    counters["godunov.cell_updates"] += int(np.size(args[1])) - 1


def _count_grid(counters, args, kwargs, result):
    eta, omega, centers = result
    counters["keyfitz_kranzer.grid_cells"] += int(eta.size)
    counters["keyfitz_kranzer.grid_bytes"] += int(eta.nbytes + omega.nbytes + centers.nbytes)


HOOKS = {
    "variation.sample_profile": _count_samples,
    "variation.p_variation": _count_subdivision,
    "triangular.transport_velocity": _count_velocity_points,
    "godunov.godunov_flux": _count_godunov_step,
    "keyfitz_kranzer.build_initial_data": _count_grid,
}

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in ``BENCHMARK.json`` order."""
    with open(BENCHMARK_JSON) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


# Metrics kept as counters (by the hooks, the flux wrappers and Env.cli)
# rather than derived from the spans.
COUNTED = {
    "cli.bytes_out",
    "variation.samples",
    "variation.subdivision_points",
    "flux.f.points",
    "flux.df.points",
    "flux.df.calls",
    "godunov.steps",
    "godunov.cell_updates",
    "triangular.transport_velocity.points",
    "keyfitz_kranzer.grid_cells",
    "keyfitz_kranzer.grid_bytes",
}


class Tracer:
    """Installs the wrappers on construction; ``uninstall`` restores the program."""

    def __init__(self, program):
        self.active = False
        self.check_id = -1
        self.names: list = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_check = array("i")
        self.stack: list = []  # [span index, time covered by child spans]
        self.calls: Counter = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters: Counter = Counter()
        self._restore: list = []
        self._install(program)

    # -- recording ---------------------------------------------------------

    def begin(self, check_id: int) -> None:
        self.check_id = check_id
        self.active = check_id >= 0  # the warm-up check is not traced

    def end(self) -> None:
        self.active = False

    def count(self, name: str, amount: int) -> None:
        if self.check_id >= 0:
            self.counters[name] += amount

    def _span(self, name_id: int, fn, args, kwargs, hook):
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_check.append(self.check_id)
        self.span_end.append(0.0)
        frame = [index, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.span_end[index] = end
            self.calls[name_id] += 1
            self.self_s[name_id] += duration - frame[1]
            self.total_s[name_id] += duration
            if self.stack:
                self.stack[-1][1] += duration
        if hook is not None:
            hook(self.counters, args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._span(name_id, fn, args, kwargs, hook)

        return traced

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(u, *args, **kwargs):
            if tracer.active:
                tracer.counters[name + ".calls"] += 1
                tracer.counters[name + ".points"] += int(np.size(u))
            return fn(u, *args, **kwargs)

        counted._bench_counted = True
        return counted

    # -- installing --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self, program) -> None:
        modules = {layer: importlib.import_module(f"{program.__name__}.{layer}") for layer in LAYERS}
        holders = [program, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for other, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, other, wrapped)
        source_profile = modules["source"].SourceProfile
        for method in SOURCE_METHODS:
            self._set(source_profile, method, self._wrap(f"source.{method}", getattr(source_profile, method)))
        profile = modules["waves"].PiecewiseProfile
        self._set(profile, "__call__", self._wrap("waves.profile_eval", profile.__call__))

        flux_class = modules["flux"].Flux
        original_init = flux_class.__init__
        tracer = self

        def init(flux, *args, **kwargs):
            original_init(flux, *args, **kwargs)
            for field in ("f", "df"):
                fn = getattr(flux, field)
                if not getattr(fn, "_bench_counted", False):
                    object.__setattr__(flux, field, tracer._counted(f"flux.{field}", fn))

        self._set(flux_class, "__init__", init)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reporting ---------------------------------------------------------

    def _by_name(self, table, name: str) -> float:
        return sum(v for i, v in table.items() if self.names[i] == name)

    def _by_layer(self, table, layer: str) -> float:
        return sum(v for i, v in table.items() if self.names[i].split(".")[0] == layer)

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, as a total per round (0 where a layer does not run)."""
        solve_s = self._by_name(self.total_s, "godunov.godunov_solve")
        updates = self.counters["godunov.cell_updates"]
        out = {}
        for metric, unit in per_layer_metrics():
            if metric == "godunov.cell_updates_per_s":
                value = updates / solve_s if solve_s > 0.0 else 0.0
            elif metric in ("cli.self_s", "source.self_s"):
                value = self._by_layer(self.self_s, metric.split(".")[0]) / rounds
            elif metric == "families.edge_travel.calls":
                value = sum(self._by_name(self.calls, f"families.edge_travel_{side}") for side in ("plus", "minus")) / rounds
            elif metric in COUNTED:
                value = self.counters[metric] / rounds
            elif metric.endswith(".self_s"):
                value = self._by_name(self.self_s, metric[: -len(".self_s")]) / rounds
            elif metric.endswith(".calls"):
                value = self._by_name(self.calls, metric[: -len(".calls")]) / rounds
            else:
                raise ValueError(f"no rule computes the per-layer metric {metric!r}")
            out[metric] = {"value": value, "unit": unit}
        return out

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            check=np.frombuffer(self.span_check, dtype=np.int32),
        )
