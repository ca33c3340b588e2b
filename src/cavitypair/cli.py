"""Batch command-line front end.

Subcommands: spectrum | evolve | sweep | mesh | peaks | selftest | plot.
Model input comes either from direct couplings (--g1/--g2/--rddi, g0 units)
or from atom-1 position (--x1, waist units) through the geometry layer;
mixing the two modes in one invocation is a usage error.  Flag values
override config-file keys, which override defaults.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical-contract
violation.  CSV output uses 17 significant digits and LF line endings so
repeated runs are byte-identical.
"""

import argparse
import dataclasses
import math
import sys

import numpy as np

from .dynamics import (
    InitialState,
    _atom_weights,
    _concurrence,
    _model_concurrence,
    _model_decomposition,
    _period,
    concurrence_series,
    evolve,
    peak_report,
    peak_times,
    reduced_density,
    scan_peak_optimum,
)
from .entanglement import wootters_concurrence, xstate_concurrence
from .errors import DegenerateModel, NumericalContractError, ParameterError
from .geometry import CavityGeometry, coupling_at, mesh, params_at, sweep_position
from .model import ModelParams, analytic_spectrum, build_effective_h, build_single_excitation_h
from .qmath import evolve_spectral, hermitian_eigendecompose, rk4_schrodinger
from .svgplot import line_plot, raster_plot

GEOMETRY_KEYS = {field.name for field in dataclasses.fields(CavityGeometry)}
DIRECT_KEYS = {"g1", "g2", "rddi"}

# Not argparse defaults: those would land in the namespace and hide whether a
# flag was given, which the precedence and mode rules of _merge_config need.
DEFAULT_X1 = -2.0
DEFAULT_T_STEPS = 1000
DEFAULT_MESH_T_STEPS = 200
DEFAULT_X1_MIN = -2.0
DEFAULT_X1_MAX = 2.0
DEFAULT_X1_STEPS = 101


def _csv(header, columns) -> str:
    """CSV text of ``columns``, one per header field: a column of str as is, numbers as %.17g."""
    cells = [col if isinstance(col[0], str) else map("%.17g".__mod__, np.asarray(col, dtype=float).tolist())
             for col in columns]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ParameterError(f"not a boolean: {text!r}")


def _parse_config_file(path: str, options: dict) -> dict:
    """Flat key=value file; blank lines and #-comments are skipped.

    Each value is parsed and checked by the argparse action ``options[key]``.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path!r}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        action = options.get(key)
        if action is None:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        parse = _parse_bool if action.nargs == 0 else action.type or str
        try:
            values[key] = parse(text)
        except ValueError as exc:
            raise ParameterError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    for key, action in options.items():
        if action.choices is not None and key in values and values[key] not in action.choices:
            *rest, last = action.choices
            raise ParameterError(f"{key} must be {', '.join(rest)} or {last}, got {values[key]!r}")
    return values


def _merge_config(args: argparse.Namespace, actions) -> dict:
    """Apply precedence CLI > config file > defaults and enforce mode exclusivity.

    Config-file keys are the dests of the shared option ``actions`` but
    ``config``.  When the command line commits to one input mode, the other
    mode's file keys are dropped rather than mixed; a conflict within a
    single source is an error.
    """
    options = {action.dest: action for action in actions if action.dest != "config"}
    file_cfg = _parse_config_file(args.config, options) if args.config else {}
    cli_cfg = {key: getattr(args, key) for key in options if getattr(args, key) is not None}

    cli_direct = bool(DIRECT_KEYS & cli_cfg.keys())
    cli_position = "x1" in cli_cfg
    if cli_direct and cli_position:
        raise ParameterError("--x1 cannot be combined with --g1/--g2/--rddi")
    if cli_direct:
        file_cfg.pop("x1", None)
    if cli_position:
        for key in DIRECT_KEYS:
            file_cfg.pop(key, None)
    if not (cli_direct or cli_position) and "x1" in file_cfg and DIRECT_KEYS & file_cfg.keys():
        raise ParameterError("config file sets x1 together with g1/g2/rddi")

    merged = dict(file_cfg)
    merged.update(cli_cfg)
    return merged


def _geometry(cfg: dict) -> CavityGeometry:
    return CavityGeometry(**{key: cfg[key] for key in GEOMETRY_KEYS if key in cfg})


def _initial_state(cfg: dict) -> InitialState:
    return InitialState(
        alpha=complex(cfg.get("alpha_re", 1.0), cfg.get("alpha_im", 0.0)),
        beta=complex(cfg.get("beta_re", 0.0), cfg.get("beta_im", 0.0)),
    )


def _model_params(cfg: dict) -> ModelParams:
    """Resolve (g1, g2, Gamma): direct couplings when any is given, else position."""
    if DIRECT_KEYS & cfg.keys():
        return ModelParams(
            g1=cfg.get("g1", 0.0),
            g2=cfg.get("g2", 0.0),
            rddi=cfg.get("rddi", 0.0),
        )
    return params_at(_geometry(cfg), cfg.get("x1", DEFAULT_X1))


def _time_grid(cfg: dict, omega: float, default_steps: int = DEFAULT_T_STEPS) -> np.ndarray:
    """Time grid from --t-max/--t-steps; t_max defaults to the period 2 pi/omega."""
    steps = cfg.get("t_steps", default_steps)
    if steps < 1:
        raise ParameterError(f"t_steps = {steps} must be >= 1")
    t_max = cfg.get("t_max")
    if t_max is None:
        try:
            t_max = _period(omega)
        except DegenerateModel as exc:
            raise DegenerateModel(f"{exc}; pass --t-max") from exc
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ParameterError(f"t_max = {t_max!r} must be finite and non-negative")
    if steps > 1 and t_max == 0.0:
        raise ParameterError("t_max = 0 needs t_steps = 1")
    return np.linspace(0.0, t_max, steps)


def _mesh(cfg: dict):
    """x1 grid, time grid and concurrence mesh; t_max defaults to the slowest period on the grid."""
    geo, x1_grid = _geometry(cfg), _x1_grid(cfg)
    grid = params_at(geo, x1_grid)
    t_grid = _time_grid(cfg, float(np.min(grid.omega)), DEFAULT_MESH_T_STEPS)
    return x1_grid, t_grid, mesh(geo, x1_grid, t_grid)


def _x1_grid(cfg: dict) -> np.ndarray:
    """Atom-1 positions of a grid command, which refuses model input it would otherwise ignore."""
    model = sorted((DIRECT_KEYS | {"x1"}) & cfg.keys())
    if model:
        raise ParameterError(f"grid commands take atom 1 from --x1-min/--x1-max/--x1-steps, not {', '.join(model)}")
    lo = cfg.get("x1_min", DEFAULT_X1_MIN)
    hi = cfg.get("x1_max", DEFAULT_X1_MAX)
    steps = cfg.get("x1_steps", DEFAULT_X1_STEPS)
    if steps < 1:
        raise ParameterError(f"x1_steps = {steps} must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)) or (steps > 1 and hi <= lo):
        raise ParameterError(f"bad x1 range [{lo!r}, {hi!r}]")
    return np.linspace(lo, hi, steps)


def _parse_scan(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--scan-rddi wants lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"--scan-rddi wants lo:hi:n, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0.0 or hi <= lo or n < 2:
        raise ParameterError(f"--scan-rddi needs 0 <= lo < hi and n >= 2, got {text!r}")
    return np.linspace(lo, hi, n)


def _emit(cfg: dict, text: str) -> None:
    path = cfg.get("out")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write output file {path!r}: {exc}") from exc


def _gauge_fix(vecs: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each vector (last axis) so its first significant component is real positive.

    Matches the sign convention of the analytic eigenvectors, keeping the
    side-by-side CSV columns directly comparable; zeros stay +0 (a rotated 0
    could print as -0).
    """
    magnitudes = np.abs(vecs)
    first = np.argmax(magnitudes > 1e-8 * magnitudes.max(axis=-1, keepdims=True), axis=-1)
    pivot = np.take_along_axis(vecs, first[..., None], axis=-1)
    return np.where(vecs == 0.0, 0.0, vecs * np.conj(pivot / abs(pivot)))


def _residuals(h: np.ndarray, energies, vecs) -> np.ndarray:
    """|H v - E v| per eigenpair (E, v) of energies (..., k) and real vectors (..., k, 3) of h (..., 3, 3), with each
    H and its E scaled by one power of two (exact) so that max|H| is in [0.5, 1): neither H v nor the squares in
    the norm overflow or underflow."""
    exponent = -np.frexp(np.max(np.abs(h), axis=(-2, -1)))[1][..., None]
    d = (np.ldexp(h, exponent[..., None])[..., None, :, :] @ vecs[..., :, None])[..., 0]
    d -= np.ldexp(energies, exponent)[..., None] * vecs
    return np.ldexp(np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0], -exponent)


def cmd_spectrum(cfg: dict) -> int:
    params = _model_params(cfg)
    spectrum = analytic_spectrum(ModelParams(g1=params.g1, g2=0.0, rddi=params.rddi))
    h_full = build_single_excitation_h(params)
    decomp = hermitian_eigendecompose(h_full)
    values = (-spectrum.omega, 0.0, spectrum.omega)
    vectors = _gauge_fix(np.stack((spectrum.bright_minus, spectrum.dark, spectrum.bright_plus)))
    num_vectors = _gauge_fix(decomp.eigenvectors.T).real
    header = (
        "index", "eigenvalue_analytic", "eigenvalue_numeric",
        "photon_analytic", "atom1_analytic", "atom2_analytic",
        "photon_numeric", "atom1_numeric", "atom2_numeric",
        "residual_analytic", "residual_numeric",
    )
    columns = (range(3), values, decomp.eigenvalues, *vectors.T, *num_vectors.T,
               _residuals(h_full, values, vectors), _residuals(h_full, decomp.eigenvalues, num_vectors))
    _emit(cfg, _csv(header, columns))
    return 0


def cmd_evolve(cfg: dict) -> int:
    params = _model_params(cfg)
    grid = _time_grid(cfg, params.omega)
    psi0 = _initial_state(cfg).vector()
    decomp = _model_decomposition(params)  # one decomposition feeds the state and the concurrence columns
    psi = evolve_spectral(decomp, psi0, grid)
    norms = np.linalg.norm(psi, axis=1)
    concurrence = _concurrence(_atom_weights(decomp, psi0), grid)
    header = ("t", "photon_re", "photon_im", "atom1_re", "atom1_im",
              "atom2_re", "atom2_im", "norm", "concurrence")
    parts = [part for amplitude in psi.T for part in (amplitude.real, amplitude.imag)]
    _emit(cfg, _csv(header, (grid, *parts, norms, concurrence)))
    return 0


def _g2_bound(g2: float, period) -> np.ndarray:
    """2 sqrt(2) |g2| period per row: the most that dropping g2 can move a peak (``SweepResult``).

    A product beyond the largest double is stated as the largest double, still a bound (C is in [0, 1]).
    """
    with np.errstate(over="ignore"):
        return np.minimum(2.0 * math.sqrt(2.0) * abs(g2) * np.asarray(period, dtype=float), sys.float_info.max)


def cmd_sweep(cfg: dict) -> int:
    geo = _geometry(cfg)
    result = sweep_position(geo, _x1_grid(cfg), numeric_peaks=cfg.get("numeric_peaks", False))
    header = ["x1", "g1", "rddi", "ratio", "c_peak", "t_peak", "period", "g2_bound"]
    columns = [result.x1, result.g1, result.rddi, result.ratio,
               result.c_peak, result.t_peak, result.period, _g2_bound(coupling_at(geo, geo.x2), result.period)]
    if result.c_peak_numeric is not None:
        header.append("c_peak_numeric")
        columns.append(result.c_peak_numeric)
    _emit(cfg, _csv(header, columns))
    return 0


def cmd_mesh(cfg: dict) -> int:
    x1_grid, t_grid, values = _mesh(cfg)
    columns = (np.repeat(x1_grid, t_grid.size), np.tile(t_grid, x1_grid.size), values.ravel())
    _emit(cfg, _csv(("x1", "t", "concurrence"), columns))
    return 0


def cmd_peaks(cfg: dict) -> int:
    params = _model_params(cfg)
    header = ("kind", "g1", "rddi", "ratio", "c_peak", "t_peak", "period")
    scan = cfg.get("scan_rddi")
    rddi = np.array([params.rddi]) if scan is None else _parse_scan(scan)
    peaks = peak_report(ModelParams(g1=params.g1, g2=cfg.get("g2", 0.0), rddi=rddi))
    kind = "report" if scan is None else "scan"
    rows = [(kind, params.g1) + row for row in zip(rddi, peaks.ratio, peaks.c_peak, peaks.t_peak, peaks.period)]
    if scan is not None:
        rows.append(("argmax",) + rows[int(np.argmax(peaks.c_peak))][1:])
        r_opt, c_opt = scan_peak_optimum(abs(params.g1))  # the peak depends on |g1| only
        optimum = peak_report(ModelParams(g1=params.g1, rddi=r_opt))
        rows.append(("optimum", params.g1, r_opt, optimum.ratio, c_opt, optimum.t_peak, optimum.period))
    columns = list(zip(*rows))
    if not DIRECT_KEYS & cfg.keys():  # position mode: the closed forms drop the position's g2
        header += ("g2_bound",)
        columns.append(_g2_bound(params.g2, columns[-1]))
    _emit(cfg, _csv(header, columns))
    return 0


def cmd_plot(cfg: dict) -> int:
    kind = cfg.get("kind", "evolve")
    if kind == "evolve":
        params = _model_params(cfg)
        series = concurrence_series(params, _initial_state(cfg), _time_grid(cfg, params.omega))
        text = line_plot(series.times, [series.values], ["C(t)"],
                         "t (1/g0)", "concurrence", "concurrence vs time")
    elif kind == "sweep":
        result = sweep_position(_geometry(cfg), _x1_grid(cfg))
        c_top = float(result.c_peak.max()) or 1.0
        p_top = float(result.period.max()) or 1.0
        text = line_plot(
            result.x1,
            [result.c_peak / c_top, result.period / p_top],
            [f"c_peak / {c_top:.6g}", f"period / {p_top:.6g}"],
            "x1 (w0)", "normalized", "peak concurrence and period vs position",
        )
    else:
        x1_grid, t_grid, values = _mesh(cfg)
        text = raster_plot(values, (float(t_grid[0]), float(t_grid[-1])),
                           (float(x1_grid[0]), float(x1_grid[-1])),
                           "t (1/g0)", "x1 (w0)", "concurrence mesh")
    _emit(cfg, text)
    return 0


def _spectrum_deviations(params: ModelParams):
    """Rows max|numeric - closed-form eigenvalue| and |H dark|, one entry per g2 = 0 model of a grid."""
    h = build_single_excitation_h(params)
    eigenvalues = hermitian_eigendecompose(h).eigenvalues
    spectrum = analytic_spectrum(params)
    closed = np.multiply.outer(spectrum.omega, [-1.0, 0.0, 1.0])
    return np.stack([np.max(np.abs(eigenvalues - closed), axis=-1),
                     _residuals(h, [0.0], spectrum.dark[..., None, :])[..., 0]])


def _integrator_deviations(params: ModelParams, psi0):
    """Per model from psi0 (shared or one each), rows: the worst gap of RK4 (10 segments of 1/Omega, each
    restarted renormalized, dt = 1e-3/Omega) to the spectral route, and the spectral norm drift at 1001 times."""
    deviations = []
    h_stack = build_single_excitation_h(params)
    for h, omega, start in zip(h_stack, params.omega, np.broadcast_to(psi0, h_stack.shape[:-1])):
        decomp, segment, psi = hermitian_eigendecompose(h), 1.0 / omega, start
        gap = 0.0
        for k in range(10):
            psi = rk4_schrodinger(h, psi / np.linalg.norm(psi), segment, 1e-3 / omega)
            gap = max(gap, np.max(np.abs(psi - evolve_spectral(decomp, start, (k + 1) * segment))))
        norms = np.linalg.norm(evolve_spectral(decomp, start, np.linspace(0.0, 10.0 * segment, 1001)), axis=-1)
        deviations.append((gap, np.max(np.abs(norms - 1.0))))
    return np.array(deviations).T


def _route_deviations(params: ModelParams, inits, t):
    """Per model k: |Wootters - xstate concurrence| from inits[k] at t[k], one ``evolve`` per distinct state."""
    g1, g2, rddi, t = np.broadcast_arrays(params.g1, params.g2, params.rddi, t)
    groups = {}
    for k, init in enumerate(inits):
        groups.setdefault(init, []).append(k)
    states = np.empty(t.shape + (3,), dtype=complex)
    for init, rows in groups.items():
        states[rows] = evolve(ModelParams(g1=g1[rows], g2=g2[rows], rddi=rddi[rows]), init, t[rows, None])[:, 0]
    return np.array([abs(wootters_concurrence(rho) - xstate_concurrence(rho)) for rho in map(reduced_density, states)])


def _peak_offsets(params: ModelParams):
    """Per g2 = 0 model, then per ``peak_times`` entry (m_max = 5): how far, in grid steps, the concurrence
    maximum of its half period lies from it, on 30 001 points over 3 periods (6 half periods of 5 000 steps).

    C = (2 g1^2 Gamma/Omega^3)|sin Omega t|(1 - cos Omega t) vanishes at every multiple of P/2, so each half
    period holds exactly one maximum, and ``peak_times`` returns one time per half period, in order."""
    grids = np.linspace(0.0, 3.0 * _period(params.omega), 30_001, axis=-1)
    values = _model_concurrence(params, InitialState(), grids)
    peaks = values[:, :-1].reshape(len(values), 6, 5_000).argmax(axis=-1) + 5_000 * np.arange(6)
    expected = peak_times(params.g1, params.rddi, m_max=5)
    times = np.take_along_axis(grids, peaks, axis=-1)
    return (np.abs(times - expected) / (grids[:, 1:2] - grids[:, :1])).ravel()


def _effective_model_concurrences(params: ModelParams, grid):
    """Concurrence from (1, 0, 0) under the adiabatic model (2|b conj(c)| along ``grid``, then Wootters at
    every 400th time) and under the full one."""
    psi = evolve_spectral(hermitian_eigendecompose(build_effective_h(params)), InitialState().vector(), grid)
    general = [wootters_concurrence(reduced_density(state)) for state in psi[::400]]
    return (np.concatenate([2.0 * np.abs(psi[:, 1] * np.conj(psi[:, 2])), general]),
            concurrence_series(params, InitialState(), grid).values)


def _selftest_checks():
    """The five physics checks at small sizes: draws from one seeded generator, each against its bound."""
    rng = np.random.default_rng(20250823)

    def spectrum_oracle():
        g1, rddi = rng.uniform(0.05, 1.0, size=(2, 50))
        eigenvalue, dark = _spectrum_deviations(ModelParams(g1=g1, rddi=rddi))
        return bool(np.all(eigenvalue <= 1e-12) and np.all(dark <= 1e-12 * np.maximum(g1, rddi)))

    def evolution_oracle():
        g1, rddi = rng.uniform(0.1, 1.0, size=(3, 2)).T
        gap, drift = _integrator_deviations(ModelParams(g1=g1, rddi=rddi), InitialState().vector())
        return bool(np.all(gap <= 1e-8) and np.all(drift <= 1e-12))

    def concurrence_equivalence():
        g1, rddi = rng.uniform(0.05, 1.0, size=(2, 200))
        t = rng.uniform(0.0, 20.0, size=200)
        return bool(np.all(_route_deviations(ModelParams(g1=g1, rddi=rddi), [InitialState()] * 200, t) <= 1e-10))

    def peak_placement():
        g1, rddi = rng.uniform(0.1, 1.0, size=(2, 5))
        return bool(np.all(_peak_offsets(ModelParams(g1=g1, rddi=rddi)) <= 1.0))

    def effective_model():
        effective, full = _effective_model_concurrences(ModelParams(g1=1.0, rddi=0.3), np.linspace(0.0, 100.0, 2001))
        return bool(effective.max() <= 1e-12 and full.max() > 0.01)

    checks = (spectrum_oracle, evolution_oracle, concurrence_equivalence, peak_placement, effective_model)
    return tuple((check.__name__.replace("_", "-"), check) for check in checks)


def cmd_selftest(cfg: dict) -> int:
    lines = []
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            lines.append(f"FAIL {name}: {type(exc).__name__}: {exc}\n")
            continue
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}\n")
    _emit(cfg, "".join(lines))
    return 0 if all(line.startswith("PASS ") for line in lines) else 3


def _shared_parser() -> argparse.ArgumentParser:
    """Every shared option, declared once: flag, config-file key, value type and choices."""
    shared = argparse.ArgumentParser(add_help=False)
    model = shared.add_argument_group("model input (direct XOR position)")
    model.add_argument("--g1", type=float, help="atom-1 coupling, g0 units")
    model.add_argument("--g2", type=float, help="atom-2 coupling, g0 units")
    model.add_argument("--rddi", type=float, help="direct exchange strength, g0 units")
    model.add_argument("--x1", type=float, help="atom-1 position, waist units")

    state = shared.add_argument_group("initial state")
    state.add_argument("--alpha-re", type=float)
    state.add_argument("--alpha-im", type=float)
    state.add_argument("--beta-re", type=float)
    state.add_argument("--beta-im", type=float)

    grids = shared.add_argument_group("grids")
    grids.add_argument("--t-max", type=float, help="default: one period 2 pi/Omega")
    grids.add_argument("--t-steps", type=int)
    grids.add_argument("--x1-min", type=float)
    grids.add_argument("--x1-max", type=float)
    grids.add_argument("--x1-steps", type=int)
    grids.add_argument("--scan-rddi", metavar="LO:HI:N")

    geo = shared.add_argument_group("geometry overrides")
    geo.add_argument("--g0-mhz", type=float)
    geo.add_argument("--w0-um", type=float)
    geo.add_argument("--lambda-um", type=float)
    geo.add_argument("--x2", type=float)
    geo.add_argument("--gamma-ref-hz", type=float)
    geo.add_argument("--r-ref", type=float)
    geo.add_argument("--standing-wave", action="store_const", const=True)
    geo.add_argument("--rddi-a", type=float, help="1/R exchange coefficient, Hz um (default: calibrated)")
    geo.add_argument("--rddi-b", type=float, help="1/R^2 exchange coefficient, Hz um^2")
    geo.add_argument("--rddi-c3", type=float, help="1/R^3 exchange coefficient, Hz um^3")

    output = shared.add_argument_group("output")
    output.add_argument("--config", help="flat key=value file, lower precedence than flags")
    output.add_argument("--out", help="output path, default standard output")
    output.add_argument("--numeric-peaks", action="store_const", const=True,
                        help="sweep: add a full-g2 numeric peak column")
    output.add_argument("--kind", choices=("evolve", "sweep", "mesh"),
                        help="plot: which figure to draw")
    return shared


# Command NAME runs cmd_NAME, looked up when it runs (so a replaced module attribute takes effect).
COMMANDS = ("spectrum", "evolve", "sweep", "mesh", "peaks", "selftest", "plot")


def build_parser(shared: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The command parser: a command from ``COMMANDS``, before or among the options of ``shared``."""
    parser = argparse.ArgumentParser(
        prog="cavitypair",
        description="Single-excitation cavity pair dynamics: spectra, concurrence, sweeps.",
        parents=[shared],
    )
    parser.add_argument("command", choices=COMMANDS)
    return parser


def main(argv=None) -> int:
    shared = _shared_parser()
    args = build_parser(shared).parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](_merge_config(args, shared._actions))
    except NumericalContractError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:  # ParameterError included; MemoryError: an unallocatable grid
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
