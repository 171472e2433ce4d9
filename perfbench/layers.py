"""Per-layer tracing for the benchmark's traced run.

The traced child wraps public callables of kerrpol from the outside; nothing
inside the package changes.  Each wrapper times its call and splits the time
into self time and the time of wrapped callees, so the self times of all
layers add up to the time spent inside wrapped calls.  Layers hit once per
row (``steady_states``, ``apply_detection_loss``, ...) are aggregated as a
count and a total; the others also keep one span per call.

A callable that no longer exists (say, after the kernel is replaced) marks
its layer unmeasured; its metrics then read -1 instead of crashing the run.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

UNMEASURED = -1.0


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    extra: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.unmeasured: set[str] = set()
        self._stack: list[list] = [[None, 0.0]]    # [layer, child time]

    def install(self, layer: str, owner, attr: str, count=None,
                span: bool = True) -> None:
        """Wrap ``owner.attr`` and every kerrpol global bound to it."""
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.unmeasured.add(layer)
            return
        wrapper = self._wrap(layer, fn, count, span)
        setattr(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "kerrpol" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)

    def _wrap(self, layer, fn, count, span):
        stat = self.stats.setdefault(layer, Stat())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                stack[-1][1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if span:
                    self.spans.append((layer, start, end, stack[-1][0]))
            if count is not None:
                try:
                    count(stat.extra, args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.unmeasured.add(layer)
            return result

        return wrapper

    def traced_time(self) -> float:
        """Seconds spent inside wrapped calls; equals the sum of self times."""
        return self._stack[0][1]

    def dump(self) -> dict:
        return {"stats": {k: vars(v) for k, v in self.stats.items()},
                "unmeasured": sorted(self.unmeasured),
                "traced_s": self.traced_time()}


def _add(extra: dict, key: str, value) -> None:
    extra[key] = extra.get(key, 0) + value


def _count_roots(extra, args, result):
    _add(extra, "three_root", int(len(result) == 3))


def _count_values(extra, args, result):
    _add(extra, "values", int(result.values.size))


def _count_samples(extra, args, result):
    cfg = args[1]
    _add(extra, "mb", cfg.n_steps * len(cfg.theta_list) * 8 / 1e6)


def _count_steps(extra, args, result):
    _add(extra, "steps", len(args[4]))


def _count_welch(extra, args, result):
    samples = args[0]
    _add(extra, "segments", int(result[3]))
    _add(extra, "columns", 1 if samples.ndim == 1 else int(samples.shape[1]))


def _count_compare(extra, args, result):
    _add(extra, "points", len(result.z))
    _add(extra, "passed", int(bool(result.passed)))


def _count_table(extra, args, result):
    _add(extra, "rows", len(args[0].rows))
    _add(extra, "bytes", len(result.encode()))


def install_layers(tracer: Tracer) -> None:
    """Wrap the public callables of each kerrpol module."""
    from kerrpol import cli, oracle, spectra, steady, stokes, tables

    t = tracer.install
    t("cli.main", cli, "main")
    t("cli.parse_config", cli, "parse_config")
    for cmd in ("cmd_scan", "cmd_spectrum", "cmd_stokes", "cmd_oracle"):
        t("cli.cmd", cli, cmd)
    t("steady.steady_states", steady, "steady_states", _count_roots, False)
    t("steady.cavity_scan", steady, "cavity_scan")
    t("spectra.noise_spectrum", spectra, "noise_spectrum", _count_values,
      False)
    t("spectra.min_max_spectrum", spectra, "min_max_spectrum", span=False)
    t("spectra.build_drift", spectra, "build_drift_x", span=False)
    t("spectra.build_drift", spectra, "build_drift_y", span=False)
    t("stokes.phase_scan_dataset", stokes, "phase_scan_dataset")
    t("stokes.stokes_noise", stokes, "stokes_noise", span=False)
    t("stokes.apply_detection_loss", stokes, "apply_detection_loss",
      span=False)
    t("oracle.simulate", oracle, "simulate", _count_samples)
    t("oracle.kernel", getattr(oracle, "_kernel", None), "integrate_em",
      _count_steps, False)
    t("oracle.welch_psd", oracle, "welch_psd", _count_welch)
    t("oracle.compare", oracle, "compare", _count_compare)
    t("tables.render", tables.OutputTable, "to_csv_text", _count_table, False)
    t("tables.render", tables.OutputTable, "to_json_text", _count_table,
      False)
    t("tables.write", tables.OutputTable, "write")


class _Unmeasured(Exception):
    pass


class _Layers:
    """Per-round views of a traced child's dumped stats."""

    def __init__(self, dump: dict, rounds: int) -> None:
        self.stats = dump["stats"]
        self.unmeasured = set(dump["unmeasured"])
        self.rounds = rounds

    def _stat(self, layer: str) -> dict:
        if layer in self.unmeasured:
            raise _Unmeasured(layer)
        return self.stats.get(layer, {"calls": 0, "total": 0.0,
                                      "self_time": 0.0, "extra": {}})

    def calls(self, layer):
        return self._stat(layer)["calls"] / self.rounds

    def total(self, layer):
        return self._stat(layer)["total"] / self.rounds

    def self_time(self, layer):
        return self._stat(layer)["self_time"] / self.rounds

    def extra(self, layer, key):
        return self._stat(layer)["extra"].get(key, 0) / self.rounds


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den > 0 else 0.0


# (metric, unit, better, value per round from _Layers)
LAYER_METRICS = [
    ("oracle.kernel.s", "s", "lower", lambda L: L.total("oracle.kernel")),
    ("oracle.kernel.calls", "count", "lower",
     lambda L: L.calls("oracle.kernel")),
    ("oracle.kernel.steps", "count", "higher",
     lambda L: L.extra("oracle.kernel", "steps")),
    ("oracle.kernel.steps_per_s", "1/s", "higher",
     lambda L: _ratio(L.extra("oracle.kernel", "steps"),
                      L.total("oracle.kernel"))),
    ("oracle.simulate.self_s", "s", "lower",
     lambda L: L.self_time("oracle.simulate")),
    ("oracle.samples_mb_computed", "MB", "lower",
     lambda L: L.extra("oracle.simulate", "mb")),
    ("oracle.welch_psd.s", "s", "lower",
     lambda L: L.total("oracle.welch_psd")),
    ("oracle.welch_psd.segments", "count", "higher",
     lambda L: L.extra("oracle.welch_psd", "segments")),
    ("oracle.welch_psd.columns", "count", "higher",
     lambda L: L.extra("oracle.welch_psd", "columns")),
    ("oracle.compare.s", "s", "lower", lambda L: L.total("oracle.compare")),
    ("oracle.compare.points", "count", "higher",
     lambda L: L.extra("oracle.compare", "points")),
    ("oracle.compare.passed", "count", "higher",
     lambda L: L.extra("oracle.compare", "passed")),
    ("steady.steady_states.calls", "count", "lower",
     lambda L: L.calls("steady.steady_states")),
    ("steady.steady_states.s", "s", "lower",
     lambda L: L.total("steady.steady_states")),
    ("steady.cavity_scan.self_s", "s", "lower",
     lambda L: L.self_time("steady.cavity_scan")),
    ("steady.us_per_point", "us", "lower",
     lambda L: _ratio(L.total("steady.steady_states"),
                      L.calls("steady.steady_states"), 1e6)),
    ("steady.three_root_frac", "frac", "higher",
     lambda L: _ratio(L.extra("steady.steady_states", "three_root"),
                      L.calls("steady.steady_states"))),
    ("spectra.noise_spectrum.calls", "count", "lower",
     lambda L: L.calls("spectra.noise_spectrum")),
    ("spectra.noise_spectrum.s", "s", "lower",
     lambda L: L.total("spectra.noise_spectrum")),
    ("spectra.noise_spectrum.values", "count", "higher",
     lambda L: L.extra("spectra.noise_spectrum", "values")),
    ("spectra.min_max_spectrum.calls", "count", "lower",
     lambda L: L.calls("spectra.min_max_spectrum")),
    ("spectra.min_max_spectrum.s", "s", "lower",
     lambda L: L.total("spectra.min_max_spectrum")),
    ("spectra.build_drift.s", "s", "lower",
     lambda L: L.total("spectra.build_drift")),
    ("stokes.phase_scan_dataset.s", "s", "lower",
     lambda L: L.total("stokes.phase_scan_dataset")),
    ("stokes.stokes_noise.s", "s", "lower",
     lambda L: L.total("stokes.stokes_noise")),
    ("stokes.apply_detection_loss.calls", "count", "lower",
     lambda L: L.calls("stokes.apply_detection_loss")),
    ("stokes.apply_detection_loss.s", "s", "lower",
     lambda L: L.total("stokes.apply_detection_loss")),
    ("tables.render.s", "s", "lower", lambda L: L.total("tables.render")),
    ("tables.write.s", "s", "lower", lambda L: L.self_time("tables.write")),
    ("tables.rows", "count", "higher",
     lambda L: L.extra("tables.render", "rows")),
    ("tables.bytes", "count", "lower",
     lambda L: L.extra("tables.render", "bytes")),
    ("cli.parse_config.s", "s", "lower",
     lambda L: L.total("cli.parse_config")),
    ("cli.cmd.self_s", "s", "lower", lambda L: L.self_time("cli.cmd")),
    ("cli.main.self_s", "s", "lower", lambda L: L.self_time("cli.main")),
]

# every per-layer metric a traced run reports: (name, unit, better)
PER_LAYER = [m[:3] for m in LAYER_METRICS] + [
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.accounted_frac", "frac", "higher"),
]


def layer_metrics(dump: dict, traced_walls: list[float],
                  untraced_walls: list[float]) -> dict:
    """Per-round layer metrics plus the tracing overhead and coverage."""
    layers = _Layers(dump, len(traced_walls))
    out = {}
    for name, unit, _, value in LAYER_METRICS:
        try:
            v = float(value(layers))
        except _Unmeasured:
            v = UNMEASURED
        out[name] = {"value": v, "unit": unit}
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    out["trace.overhead_frac"] = {"value": traced / untraced - 1.0,
                                  "unit": "frac"}
    out["trace.accounted_frac"] = {
        "value": dump["traced_s"] / math.fsum(traced_walls), "unit": "frac"}
    return out

