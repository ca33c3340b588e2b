"""Which cavitypair functions the tracer wraps, and the per-layer metrics read from them.

Every target is a public function of the package (its ``__all__``), plus
the CLI's CSV formatter and writer, which make up its emit stage.  A target
a later version removes reports zero.
"""

import numpy as np

from checkout import PACKAGE as PKG
from tracer import Target


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _points(args, kwargs, result):
    return {"points": int(np.size(_arg(args, kwargs, 2, "t")))}


def _rk4_steps(args, kwargs, result):
    t_final = float(_arg(args, kwargs, 2, "t_final"))
    dt = float(_arg(args, kwargs, 3, "dt"))
    full = int(np.floor(t_final / dt + 1e-12)) if t_final > 0.0 else 0
    partial = t_final - full * dt > 1e-12 * dt
    return {"steps": full + int(partial)}


def _series_points(args, kwargs, result):
    return {"points": int(np.size(result.times))}


def _numeric_peaks(args, kwargs, result):
    numeric = result.c_peak_numeric
    return {"numeric_peaks": 0 if numeric is None else int(np.size(numeric))}


def _text_bytes(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


TARGETS = (
    Target("qmath.eigendecompose", f"{PKG}.qmath", "hermitian_eigendecompose"),
    Target("qmath.evolve_spectral", f"{PKG}.qmath", "evolve_spectral", _points),
    Target("qmath.rk4", f"{PKG}.qmath", "rk4_schrodinger", _rk4_steps),
    Target("model.params", f"{PKG}.model", "ModelParams.__init__"),
    Target("model.build_h", f"{PKG}.model", "build_single_excitation_h"),
    Target("dynamics.evolve", f"{PKG}.dynamics", "evolve"),
    Target("dynamics.reduced_density", f"{PKG}.dynamics", "reduced_density"),
    Target("dynamics.concurrence_series", f"{PKG}.dynamics", "concurrence_series", _series_points),
    Target("dynamics.peak_report", f"{PKG}.dynamics", "peak_report"),
    Target("dynamics.peak_height", f"{PKG}.dynamics", "peak_height"),
    Target("dynamics.scan_peak_optimum", f"{PKG}.dynamics", "scan_peak_optimum"),
    Target("entanglement.wootters", f"{PKG}.entanglement", "wootters_concurrence"),
    Target("entanglement.xstate", f"{PKG}.entanglement", "xstate_concurrence"),
    Target("geometry.params_at", f"{PKG}.geometry", "params_at"),
    Target("geometry.mesh", f"{PKG}.geometry", "mesh"),
    Target("geometry.sweep_position", f"{PKG}.geometry", "sweep_position", _numeric_peaks),
    Target("geometry.numeric_peak", f"{PKG}.geometry", "numeric_peak_concurrence"),
    Target("svgplot.line", f"{PKG}.svgplot", "line_plot", lambda a, k, r: _text_bytes(r)),
    Target("svgplot.raster", f"{PKG}.svgplot", "raster_plot", lambda a, k, r: _text_bytes(r)),
    Target("cli.emit", f"{PKG}.cli", "_csv"),
    Target("cli.emit", f"{PKG}.cli", "_emit", lambda a, k, r: _text_bytes(_arg(a, k, 1, "text"))),
)

# Prefix of the stderr line on which a traced CLI child reports its statistics.
TRACE_MARKER = "PERFBENCH-TRACE "

CLI_COMMANDS = ("spectrum", "evolve", "sweep", "mesh", "peaks", "selftest", "plot")

# (name, unit) of every per-layer metric, in output order.
PER_LAYER = (
    [
        ("qmath.eigendecompose.calls", "count"), ("qmath.eigendecompose.busy_ms", "ms"),
        ("qmath.evolve_spectral.calls", "count"), ("qmath.evolve_spectral.points", "count"),
        ("qmath.evolve_spectral.busy_ms", "ms"),
        ("qmath.rk4.calls", "count"), ("qmath.rk4.steps", "count"), ("qmath.rk4.busy_ms", "ms"),
        ("model.params.constructed", "count"),
        ("model.build_h.calls", "count"), ("model.build_h.busy_ms", "ms"),
        ("dynamics.evolve.calls", "count"), ("dynamics.evolve.busy_ms", "ms"),
        ("dynamics.reduced_density.calls", "count"), ("dynamics.reduced_density.busy_ms", "ms"),
        ("dynamics.concurrence_series.calls", "count"), ("dynamics.concurrence_series.points", "count"),
        ("dynamics.concurrence_series.busy_ms", "ms"), ("dynamics.concurrence_series.self_ms", "ms"),
        ("dynamics.peak_report.calls", "count"), ("dynamics.peak_report.busy_ms", "ms"),
        ("dynamics.scan_peak_optimum.calls", "count"), ("dynamics.scan_peak_optimum.busy_ms", "ms"),
        ("dynamics.scan_peak_optimum.evals_per_call", "count"),
        ("entanglement.wootters.calls", "count"), ("entanglement.wootters.busy_ms", "ms"),
        ("entanglement.xstate.calls", "count"), ("entanglement.xstate.busy_ms", "ms"),
        ("geometry.params_at.calls", "count"), ("geometry.params_at.busy_ms", "ms"),
        ("geometry.mesh.calls", "count"), ("geometry.mesh.busy_ms", "ms"), ("geometry.mesh.self_ms", "ms"),
        ("geometry.sweep_position.calls", "count"), ("geometry.sweep_position.busy_ms", "ms"),
        ("geometry.sweep_position.self_ms", "ms"),
        ("geometry.numeric_peak.calls", "count"), ("geometry.numeric_peak.busy_ms", "ms"),
        ("geometry.numeric_peak.points_per_peak", "count"),
        ("svgplot.line.busy_ms", "ms"), ("svgplot.raster.busy_ms", "ms"), ("svgplot.bytes", "bytes"),
    ]
    + [(f"cli.{command}.wall_ms", "ms") for command in CLI_COMMANDS]
    + [
        ("cli.import_ms", "ms"), ("cli.emit.self_ms", "ms"), ("cli.emit.bytes", "bytes"),
        ("crosscheck.domain.probes", "count"), ("crosscheck.domain.fail_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"), ("process.cpu_s", "s"),
    ]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_values(stats) -> dict:
    """Per-layer values read from tracer statistics; layers never called read 0."""
    def get(layer):
        return stats[layer] if layer in stats else None

    values = {}
    for name, _ in PER_LAYER:
        layer, _, metric = name.rpartition(".")
        s = get(layer)
        if s is None:
            continue
        if metric == "calls":
            values[name] = s.calls
        elif metric == "busy_ms":
            values[name] = 1e3 * s.busy_s
        elif metric == "self_ms":
            values[name] = 1e3 * s.self_s
        elif metric in ("points", "steps"):
            values[name] = s.counts.get(metric, 0)
    if (s := get("model.params")) is not None:
        values["model.params.constructed"] = s.calls
    if (s := get("dynamics.scan_peak_optimum")) is not None:
        evals = s.within.get("dynamics.peak_height", {}).get("calls", 0)
        values["dynamics.scan_peak_optimum.evals_per_call"] = _ratio(evals, s.calls)
    if (s := get("geometry.sweep_position")) is not None:
        points = s.within.get("qmath.evolve_spectral", {}).get("points", 0)
        values["geometry.numeric_peak.points_per_peak"] = _ratio(points, s.counts.get("numeric_peaks", 0))
    values["svgplot.bytes"] = sum(get(layer).counts.get("bytes", 0)
                                  for layer in ("svgplot.line", "svgplot.raster") if get(layer))
    if (s := get("cli.emit")) is not None:
        values["cli.emit.bytes"] = s.counts.get("bytes", 0)
    return values
