"""The workloads: seeded inputs, their ops, and the oracle check of every output.

Inputs are drawn once at set-up into a fixed pool from the workload seed and
cycled through by the ops, so the program only ever sees generated inputs.
Workloads call the README-documented API (``import cavitypair``) and the
``cavitypair`` command line only.
"""

import csv
import io
import json
import math
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from collections import Counter
from itertools import count
from types import SimpleNamespace

import numpy as np

import oracles as orc
from checkout import ROOT, child_env
from harness import OpFailed
from layers import CLI_COMMANDS, TRACE_MARKER

X1_RANGE = (-3.5, 3.5)


def jittered_positions(rng, n: int) -> np.ndarray:
    """One uniform draw per equal slice of X1_RANGE: strictly ascending, covering the range."""
    lo, hi = X1_RANGE
    width = (hi - lo) / n
    return lo + (np.arange(n) + rng.uniform(size=n)) * width


def check_sweep(result, x1) -> None:
    """Analytic sweep columns against the default geometry and the ratio-form closed form."""
    g1, _, rddi = orc.geometry_couplings(x1)
    omega = np.hypot(g1, rddi)
    orc.require_close(result.x1, x1, 0.0, "sweep x1")
    orc.require_close(result.g1, g1, 0.0, "sweep g1", orc.REL_TOL)
    orc.require_close(result.rddi, rddi, 0.0, "sweep rddi", orc.REL_TOL)
    orc.require_close(result.ratio, rddi / g1, 0.0, "sweep ratio", orc.REL_TOL)
    orc.require_close(result.c_peak, orc.peak_height(g1, rddi), orc.PEAK_TOL, "sweep c_peak")
    orc.require_close(result.t_peak, 2.0 * np.pi / (3.0 * omega), 0.0, "sweep t_peak", orc.REL_TOL)
    orc.require_close(result.period, 2.0 * np.pi / omega, 0.0, "sweep period", orc.REL_TOL)


def check_concurrence_grid(values, want) -> None:
    """Propagated concurrence against the eigh-oracle values ``want``."""
    orc.require_close(values, want, orc.AMPLITUDE_TOL, "concurrence vs eigh propagation")
    orc.require((values >= 0.0) & (values <= 1.0), "concurrence outside [0, 1]")


class Workload:
    """Base: ``items()`` cycles the input pool; ``round_size`` ops form one unit of stopping.

    Reported statistics pool the ``windows_kept`` fastest windows of
    ``window_ops`` consecutive ops of each label (see harness.fastest_windows).
    """

    round_size = 1
    min_ops = 0
    warmup_ops = 0
    traced_ops = 0
    window_ops = 1
    windows_kept = 1
    untimed = None

    def items(self):
        for i in count():
            yield self.pool[i % len(self.pool)]

    def label(self, item):
        return None

    def traced_op(self, item):
        return self.op(item)


class GridOps:
    """mesh over a fixed time grid, then sweep_position without numeric peaks."""

    BLOCK = 64
    T_GRID = np.linspace(0.0, 50.0, 400)
    POOL = 16

    def __init__(self, rng, cp):
        self.cp = cp
        self.geo = cp.CavityGeometry()
        self.pool = [jittered_positions(rng, self.BLOCK) for _ in range(self.POOL)]
        self._want = {}  # pool block id -> oracle concurrence grid

    def op(self, x1):
        return self.cp.mesh(self.geo, x1, self.T_GRID), self.cp.sweep_position(self.geo, x1)

    def check(self, x1, out):
        values, sweep = out
        want = self._want.get(id(x1))
        if want is None:
            want = self._want[id(x1)] = orc.concurrence(orc.propagate(*orc.geometry_couplings(x1), self.T_GRID))
        check_concurrence_grid(values, want)
        check_sweep(sweep, x1)


class PeaksOps:
    """sweep_position with numeric peaks, then scan_peak_optimum at each g1 of the block."""

    BLOCK = 8
    POOL = 64

    def __init__(self, rng, cp):
        self.cp = cp
        self.geo = cp.CavityGeometry()
        self.pool = [jittered_positions(rng, self.BLOCK) for _ in range(self.POOL)]
        self._true_peaks = {}  # pool block id -> oracle peaks, which cost as much as the op

    def op(self, x1):
        sweep = self.cp.sweep_position(self.geo, x1, numeric_peaks=True)
        return sweep, [self.cp.scan_peak_optimum(float(g1)) for g1 in sweep.g1]

    def check(self, x1, out):
        sweep, optima = out
        check_sweep(sweep, x1)
        g1, g2, rddi = orc.geometry_couplings(x1)
        true = self._true_peaks.get(id(x1))
        if true is None:
            true = self._true_peaks[id(x1)] = np.array([orc.true_peak(*c) for c in zip(g1, g2, rddi)])
        numeric = np.asarray(sweep.c_peak_numeric, dtype=float)
        orc.require(numeric <= true + orc.PEAK_TOL, "numeric peak above the true maximum")
        orc.require(numeric >= true * (1.0 - orc.NUMERIC_PEAK_RTOL), "numeric peak below the sampling bound")
        r_opt, c_opt = np.array(optima, dtype=float).T
        orc.require_close(r_opt, g1 / math.sqrt(2.0), 0.0, "optimum rddi", orc.OPTIMUM_RTOL)
        orc.require_close(c_opt, np.ones_like(c_opt), orc.OPTIMUM_RTOL**2, "optimum height")


PSI0 = np.array([1.0, 0.0, 0.0], dtype=complex)
RK4_SPAN = 2.0   # in units of 1/max|H_ij|
RK4_STEPS = 48
NORM_TOL = 1e-12


def _log_uniform(rng, lo_exp: float, hi_exp: float) -> float:
    return float(10.0 ** rng.uniform(lo_exp, hi_exp))


class CrosscheckOps:
    """A batch of model points, each checked the way selftest does: scalar route, peak report, short rk4.

    Batch points are positive couplings log-uniform in [1e-3, 1e3], g2 = 0 on
    every other point.  After each batch, untimed, PROBES_PER_BATCH points of
    the whole documented domain (|g| log-uniform in 1e-300..1e300, signed)
    go through the same op and check; their outcomes are tallied by class in
    ``census`` and reported, not counted as ops.
    """

    BATCH = 16
    POOL = 256
    PROBES_PER_BATCH = 4

    def __init__(self, rng, cp):
        self.cp = cp
        self.pool = []
        for _ in range(self.POOL):
            batch = []
            for i in range(self.BATCH):
                g1, rddi = _log_uniform(rng, -3, 3), _log_uniform(rng, -3, 3)
                g2 = 0.0 if i % 2 == 0 else _log_uniform(rng, -3, 3)
                batch.append((g1, g2, rddi, float(rng.uniform(0.0, 4.0 * math.pi))))
            self.pool.append(tuple(batch))
        self.probes = []
        for _ in range(self.POOL * self.PROBES_PER_BATCH):
            g = [float(rng.choice((-1.0, 1.0))) * _log_uniform(rng, -300, 300) for _ in range(3)]
            self.probes.append((*g, float(rng.uniform(0.0, 4.0 * math.pi))))
        self.census = Counter()
        self._probed = 0
        self._want = {}  # point -> oracle values

    def op(self, batch):
        return [self.point_op(point) for point in batch]

    def check(self, batch, outs):
        for point, out in zip(batch, outs):
            self.check_point(point, out)

    def point_op(self, point):
        cp = self.cp
        g1, g2, rddi, tau = point
        scale = max(abs(g1), abs(g2), abs(rddi))
        params = cp.ModelParams(g1=g1, g2=g2, rddi=rddi)
        psi = cp.evolve(params, cp.InitialState(), tau / scale)
        rho = cp.reduced_density(psi)
        c_wootters = cp.wootters_concurrence(rho)
        c_fast = cp.xstate_concurrence(rho)
        report = cp.peak_report(cp.ModelParams(g1=g1, g2=0.0, rddi=rddi))
        h = cp.build_single_excitation_h(params)
        t_rk = RK4_SPAN / scale
        psi_rk = cp.rk4_schrodinger(h, PSI0, t_rk, t_rk / RK4_STEPS)
        psi_spectral = cp.evolve_spectral(cp.hermitian_eigendecompose(h), PSI0, t_rk)
        return psi, c_wootters, c_fast, report, psi_rk, psi_spectral

    @staticmethod
    def expected(point) -> SimpleNamespace:
        """Oracle values for one point: states at t and t_rk, concurrence, peak report, rk4 bound."""
        g1, g2, rddi, tau = point
        scale = max(abs(g1), abs(g2), abs(rddi))
        t, t_rk = tau / scale, RK4_SPAN / scale
        psi, psi_rk = orc.propagate(g1, g2, rddi, [t, t_rk])[0]
        omega = math.hypot(g1, rddi)
        step_phase = orc.spectral_norm_over_scale(g1, g2, rddi) * RK4_SPAN / RK4_STEPS
        return SimpleNamespace(
            psi=psi, psi_rk=psi_rk,
            c=orc.closed_form_concurrence(g1, rddi, t) if g2 == 0.0 else orc.concurrence(psi),
            c_peak=orc.peak_height(g1, rddi), period=2.0 * math.pi / omega,
            t_peak=2.0 * math.pi / (3.0 * omega), rk4_bound=orc.rk4_error_bound(step_phase, RK4_STEPS),
        )

    def check_point(self, point, out):
        psi, c_wootters, c_fast, report, psi_rk, psi_spectral = out
        want = self._want.get(point)
        if want is None:
            want = self._want[point] = self.expected(point)
        orc.require_close(psi, want.psi, orc.AMPLITUDE_TOL, "evolve vs eigh")
        orc.require(abs(np.linalg.norm(psi) - 1.0) <= NORM_TOL, "evolve norm drift")
        orc.require(0.0 <= c_wootters <= 1.0 and 0.0 <= c_fast <= 1.0, "concurrence outside [0, 1]")
        orc.require_close(c_wootters, c_fast, orc.CONCURRENCE_TOL, "Wootters vs fast path")
        orc.require_close(c_fast, want.c, orc.AMPLITUDE_TOL, "fast-path concurrence vs oracle")
        orc.require_close(report.c_peak, want.c_peak, orc.PEAK_TOL, "peak_report c_peak")
        orc.require_close(report.period, want.period, 0.0, "peak_report period", orc.REL_TOL)
        orc.require_close(report.t_peak, want.t_peak, 0.0, "peak_report t_peak", orc.REL_TOL)
        orc.require_close(psi_spectral, want.psi_rk, orc.AMPLITUDE_TOL, "evolve_spectral vs eigh")
        orc.require_close(psi_rk, want.psi_rk, want.rk4_bound, "rk4 vs eigh")

    def probe(self) -> None:
        for _ in range(self.PROBES_PER_BATCH):
            point = self.probes[self._probed % len(self.probes)]
            self._probed += 1
            try:
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("ignore", RuntimeWarning)
                    self.check_point(point, self.point_op(point))
            except orc.OracleMismatch:
                self.census["wrong value"] += 1
            except Exception as exc:  # the census records every way the program fails a probe
                self.census[type(exc).__name__] += 1
            else:
                self.census["ok"] += 1


class Library(Workload):
    """In-process traffic mix: each round is one grid block, one peaks block and one crosscheck batch.

    The three op kinds take 10-15 ms each at the seed and are ranked in
    windows of their own kind.
    """

    round_size = 3
    warmup_ops = 3
    traced_ops = 3 * 40
    window_ops = 6
    windows_kept = 20

    def __init__(self, seed: int, cp):
        rng = np.random.default_rng(seed)
        self.kinds = {"grid": GridOps(rng, cp), "peaks": PeaksOps(rng, cp), "crosscheck": CrosscheckOps(rng, cp)}
        self.census = self.kinds["crosscheck"].census

    def items(self):
        for i in count():
            for kind, ops in self.kinds.items():
                yield kind, ops.pool[i % len(ops.pool)]

    def label(self, item):
        return item[0]

    def op(self, item):
        kind, inputs = item
        return self.kinds[kind].op(inputs)

    def check(self, item, out):
        kind, inputs = item
        self.kinds[kind].check(inputs, out)

    def untimed(self, item):
        if item[0] == "crosscheck":
            self.kinds["crosscheck"].probe()


CLI_ARGS = {
    "spectrum": ["spectrum"],
    "evolve": ["evolve"],
    "sweep": ["sweep"],
    "mesh": ["mesh"],
    "peaks": ["peaks", "--scan-rddi", "0.01:2:200"],
    "selftest": ["selftest"],
    "plot": ["plot", "--kind", "mesh"],
}
# CLI defaults the checks rely on: atom 1 at x1 = -2 and these grid sizes.
CLI_X1 = -2.0
CLI_T_STEPS = 1000
CLI_SWEEP = np.linspace(-2.0, 2.0, 101)
CLI_MESH_T_STEPS = 200
CHILD_TIMEOUT_S = 120


def csv_columns(text: str) -> dict:
    """Columns by header name; numeric columns as float arrays."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [row[j] for row in body]
        try:
            columns[name] = np.array(cells, dtype=float)
        except ValueError:
            columns[name] = cells
    return columns


class Cli(Workload):
    """One cold ``python -m cavitypair.cli`` process per op; each round runs all seven commands."""

    round_size = len(CLI_COMMANDS)
    traced_ops = len(CLI_COMMANDS)
    min_ops = 6 * len(CLI_COMMANDS)  # best of at least six runs per command
    ROUNDS = 64  # seeded command orders, cycled

    def __init__(self, seed: int, cp=None):
        rng = np.random.default_rng(seed)
        self.pool = [CLI_COMMANDS[k] for _ in range(self.ROUNDS) for k in rng.permutation(len(CLI_COMMANDS))]
        self.svg = None
        self.child_traces = []

    def label(self, command):
        return command

    def _run(self, argv):
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise OpFailed("timeout") from exc
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}")
        return proc

    def op(self, command):
        return self._run([sys.executable, "-m", "cavitypair.cli", *CLI_ARGS[command]]).stdout

    def traced_op(self, command):
        script = str(ROOT / "perfbench" / "traced_cli.py")
        proc = self._run([sys.executable, script, *CLI_ARGS[command]])
        self.child_traces.append(json.loads(proc.stderr.decode().rpartition(TRACE_MARKER)[2]))
        return proc.stdout

    def check(self, command, stdout):
        text = stdout.decode("utf-8")
        getattr(self, f"_check_{command}")(text)

    def _check_spectrum(self, text):
        col = csv_columns(text)
        g1, g2, rddi = (float(v) for v in orc.geometry_couplings(CLI_X1))
        h = orc.hamiltonians(g1, g2, rddi)
        scale = max(g1, g2, rddi)
        omega = math.hypot(g1, rddi)
        orc.require_close(col["eigenvalue_analytic"], [-omega, 0.0, omega], orc.EIG_RTOL * scale,
                          "spectrum analytic eigenvalues")
        orc.require_close(col["eigenvalue_numeric"], np.linalg.eigvalsh(h), orc.EIG_RTOL * scale,
                          "spectrum numeric eigenvalues")
        for kind, tol in (("analytic", g2 + orc.EIG_RTOL * scale), ("numeric", orc.EIG_RTOL * scale)):
            vectors = np.stack([col[f"{part}_{kind}"] for part in ("photon", "atom1", "atom2")], axis=1)
            values = col[f"eigenvalue_{kind}"]
            residual = np.linalg.norm(vectors @ h - values[:, None] * vectors, axis=1)
            orc.require(residual <= tol, f"spectrum {kind} eigenvector residual")
            orc.require_close(np.linalg.norm(vectors, axis=1), np.ones(3), 1e-12, f"spectrum {kind} norm")

    def _check_evolve(self, text):
        col = csv_columns(text)
        t = col["t"]
        orc.require(t.size == CLI_T_STEPS and np.all(np.diff(t) > 0.0), "evolve time grid")
        psi = orc.propagate(*orc.geometry_couplings(CLI_X1), t)[0]
        for k, part in enumerate(("photon", "atom1", "atom2")):
            got = col[f"{part}_re"] + 1j * col[f"{part}_im"]
            orc.require_close(got, psi[:, k], orc.AMPLITUDE_TOL, f"evolve {part}")
        orc.require_close(col["norm"], np.ones(t.size), NORM_TOL, "evolve norm")
        orc.require_close(col["concurrence"], orc.concurrence(psi), orc.AMPLITUDE_TOL, "evolve concurrence")

    def _check_sweep(self, text):
        result = SimpleNamespace(**csv_columns(text))
        orc.require_close(result.x1, CLI_SWEEP, 1e-15, "sweep grid")
        check_sweep(result, result.x1)

    def _check_mesh(self, text):
        col = csv_columns(text)
        x1, t = col["x1"], col["t"]
        orc.require(x1.size == CLI_SWEEP.size * CLI_MESH_T_STEPS, "mesh size")
        g1, g2, rddi = orc.geometry_couplings(x1)
        want = orc.concurrence(orc.propagate(g1, g2, rddi, t[:, None]))[:, 0]
        orc.require_close(col["concurrence"], want, orc.AMPLITUDE_TOL, "mesh concurrence vs eigh")
        orc.require((col["concurrence"] >= 0.0) & (col["concurrence"] <= 1.0), "mesh concurrence outside [0, 1]")

    def _check_peaks(self, text):
        col = csv_columns(text)
        kind = np.array(col["kind"])
        g1 = float(orc.geometry_couplings(CLI_X1)[0])
        scan = kind == "scan"
        rddi = col["rddi"][scan]
        orc.require_close(rddi, np.linspace(0.01, 2.0, 200), 1e-15, "peaks scan grid")
        orc.require_close(col["g1"], np.full(kind.size, g1), 0.0, "peaks g1", orc.REL_TOL)
        orc.require_close(col["c_peak"][scan], orc.peak_height(g1, rddi), orc.PEAK_TOL, "peaks scan c_peak")
        omega = np.hypot(g1, rddi)
        orc.require_close(col["period"][scan], 2.0 * np.pi / omega, 0.0, "peaks period", orc.REL_TOL)
        best = col["c_peak"][kind == "argmax"]
        orc.require(best.size == 1 and best[0] == col["c_peak"][scan].max(), "peaks argmax row")
        r_opt = col["rddi"][kind == "optimum"]
        c_opt = col["c_peak"][kind == "optimum"]
        orc.require_close(r_opt, [g1 / math.sqrt(2.0)], 0.0, "peaks optimum rddi", orc.OPTIMUM_RTOL)
        orc.require_close(c_opt, [1.0], orc.OPTIMUM_RTOL**2, "peaks optimum height")

    def _check_selftest(self, text):
        lines = text.splitlines()
        orc.require(lines and not any(line.startswith("FAIL") for line in lines), "selftest reported FAIL")

    def _check_plot(self, text):
        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise orc.OracleMismatch(f"plot: SVG does not parse: {exc}") from exc
        orc.require(root.tag.rpartition("}")[2] == "svg", "plot: root element is not svg")
        if self.svg is None:
            self.svg = text
        orc.require(text == self.svg, "plot: SVG differs between rounds")


WORKLOADS = {"cli": Cli, "library": Library}
