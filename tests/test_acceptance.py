"""Acceptance gate: the release-blocking checks, one per physics claim.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) with
the measured worst-case numbers, then asserts.  Tolerances here are the
contract; the per-module suites probe the same routes at higher resolution
but only this file decides whether the package does what it says.  Checks
1-4 and 9 call the ``cli`` functions behind ``cavitypair selftest``, which runs
them at small sizes; here they run at the gate's own seeds, sizes and bounds.
"""

import math
import subprocess
import sys

import numpy as np

from cavitypair import (
    CavityGeometry,
    InitialState,
    ModelParams,
    cli,
    concurrence_series,
    params_at,
    scan_peak_optimum,
    sweep_position,
)

GEO = CavityGeometry()


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_01_spectrum_identities():
    g1, rddi = np.random.default_rng(101).uniform(0.0, 1.0, size=(1000, 2)).T
    worst_eig, worst_dark = cli._spectrum_deviations(ModelParams(g1=g1, rddi=rddi)).max(axis=1)
    report(
        "1 spectrum identities",
        worst_eig <= 1e-12 and worst_dark <= 1e-12,
        f"1000 draws, eigenvalue dev {worst_eig:.2e}, dark residual {worst_dark:.2e}")


def test_02_integrator_cross_check():
    rng = np.random.default_rng(102)

    def draw():
        g1, rddi = rng.uniform(0.05, 2.0), rng.uniform(0.0, 2.0)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        return g1, rddi, psi0 / np.linalg.norm(psi0)

    g1, rddi, psi0 = map(np.array, zip(*(draw() for _ in range(100))))
    worst_diff, worst_drift = cli._integrator_deviations(ModelParams(g1=g1, rddi=rddi), psi0).max(axis=1)
    report(
        "2 integrator cross-check",
        worst_diff <= 1e-8 and worst_drift <= 1e-12,
        f"100 sets, entrywise dev {worst_diff:.2e}, spectral norm drift {worst_drift:.2e}")


def test_03_concurrence_route_equivalence():
    rng = np.random.default_rng(103)

    def draw(i):
        g1 = rng.uniform(0.05, 2.0)
        g2 = 0.0 if i % 2 == 0 else rng.uniform(0.0, 0.5)
        rddi = rng.uniform(0.0, 2.0)
        if i % 3 == 0:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            mix = rng.uniform(0.0, 1.0)
            init = InitialState(math.sqrt(1.0 - mix), math.sqrt(mix) * np.exp(1j * phase))
        else:
            init = InitialState()
        return g1, g2, rddi, init, rng.uniform(0.0, 30.0)

    g1, g2, rddi, inits, t = zip(*map(draw, range(1000)))
    worst = cli._route_deviations(ModelParams(g1=g1, g2=g2, rddi=rddi), inits, t).max()
    report(
        "3 concurrence route equivalence",
        worst <= 1e-10,
        f"1000 pipeline states, worst route difference {worst:.2e}")


def test_04_peak_time_formula():
    g1, rddi = np.random.default_rng(104).uniform(0.05, 2.0, size=(50, 2)).T
    worst = cli._peak_offsets(ModelParams(g1=g1, rddi=rddi)).max()
    report(
        "4 peak-time formula",
        worst <= 1.0000001,
        f"50 sets x 6 peaks, worst argmax offset {worst:.3f} grid steps")


def test_05_two_peak_structure():
    rng = np.random.default_rng(105)
    worst_count = 2
    worst_height = 0.0
    for _ in range(20):
        g1 = rng.uniform(0.05, 2.0)
        rddi = rng.uniform(0.05, 2.0)
        params = ModelParams(g1=g1, g2=0.0, rddi=rddi)
        grid = np.linspace(0.0, 2.0 * math.pi / params.omega, 10001)
        c = concurrence_series(params, InitialState(), grid).values
        maxima = np.flatnonzero((c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])) + 1
        if maxima.size != 2:
            worst_count = maxima.size
            break
        worst_height = max(worst_height, abs(c[maxima[0]] - c[maxima[1]]))
    report(
        "5 two-peak structure",
        worst_count == 2 and worst_height <= 1e-10,
        f"20 sets, maxima per period {worst_count}, height mismatch {worst_height:.2e}")


def test_06_exchange_optimum():
    rddi_opt, c_opt = scan_peak_optimum(1.0)
    report(
        "6 exchange optimum",
        abs(c_opt - 1.0) <= 1e-6 and abs(rddi_opt - 0.707107) <= 1e-4,
        f"scan at g1=1: c_peak {c_opt:.8f} at rddi {rddi_opt:.8f}")


def test_07_position_trends():
    result = sweep_position(GEO, np.linspace(-2.0, 2.0, 101))
    left = slice(0, 51)
    falling = bool(
        np.all(np.diff(result.c_peak[left]) < 0.0) and np.all(np.diff(result.period[left]) < 0.0))
    period_recovers = bool(np.all(np.diff(result.period[50:]) > 0.0))
    turn = 50 + int(np.argmin(result.c_peak[50:]))
    c_peak_recovers = bool(
        result.x1[turn] <= 0.12 + 1e-12
        and np.all(np.diff(result.c_peak[turn:]) > 0.0)
        and result.c_peak[-1] > result.c_peak[50])
    period_dev = float(
        np.max(np.abs(result.period - 2.0 * math.pi / np.hypot(result.g1, result.rddi))))
    report(
        "7 position trends",
        falling and period_recovers and c_peak_recovers and period_dev <= 1e-12,
        f"falling {falling}, recovery from x1={result.x1[turn]:.2f}, period dev {period_dev:.2e}")


def test_08_asymmetric_coupling_validity():
    result = sweep_position(GEO, np.linspace(-2.0, 2.0, 101), numeric_peaks=True)
    truncation = float(np.max(np.abs(result.c_peak_numeric - result.c_peak) / result.c_peak))
    ratios = []
    for x1 in (-3.0, 3.0):
        p = params_at(GEO, x1)
        ratios.append(p.rddi / p.g1)
    in_band = all(0.1 <= r <= 10.0 for r in ratios)
    report(
        "8 asymmetric-coupling validity",
        truncation <= 1e-6 and in_band,
        f"peak truncation error {truncation:.2e}, edge ratios {ratios[0]:.3f}/{ratios[1]:.3f}")


def test_09_effective_model_stays_separable():
    effective, full = cli._effective_model_concurrences(ModelParams(g1=1.0, rddi=0.1), np.linspace(0.0, 100.0, 4001))
    effective_max, full_max = effective.max(), full.max()
    report(
        "9 effective model stays separable",
        effective_max <= 1e-12 and full_max > 0.01,
        f"effective max {effective_max:.2e}, full-model max {full_max:.3f} over t in [0, 100]")


def test_10_default_regime_magnitudes():
    p = params_at(GEO, -2.0)
    ratio = p.rddi / p.g1
    c_peak = float(sweep_position(GEO, np.array([-2.0])).c_peak[0])
    report(
        "10 default regime magnitudes",
        abs(ratio - 1.37e-2) <= 1e-4 and abs(c_peak - 0.0355) <= 1e-4,
        f"x1=-2: ratio {ratio:.6f}, c_peak {c_peak:.6f}")


def test_11_cli_determinism(tmp_path):
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text("g1 = 1\nrddi = 0.5\nt_steps = 50\n")
    invocations = [
        ["spectrum", "--config", str(cfg)],
        ["evolve", "--config", str(cfg)],
        ["sweep", "--x1-steps", "7"],
        ["mesh", "--x1-steps", "3", "--t-steps", "5"],
        ["peaks", "--g1", "1", "--scan-rddi", "0.2:1.5:25"],
        ["plot", "--config", str(cfg)],
    ]
    # Each subcommand twice, then the selftest: all 13 cold interpreters start at once, then each is waited for.
    commands = [args for args in invocations for _ in range(2)] + [["selftest"]]
    procs = [subprocess.Popen([sys.executable, "-m", "cavitypair.cli", *args],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) for args in commands]
    outputs = [proc.communicate() for proc in procs]
    codes = [proc.returncode for proc in procs]
    assert codes[:-1] == [0] * 12, [err for (_, err), code in zip(outputs, codes) if code]
    stable = [outputs[i][0] == outputs[i + 1][0] and len(outputs[i][0]) > 0 for i in range(0, 12, 2)]
    report(
        "11 cli determinism",
        all(stable) and codes[-1] == 0,
        f"byte-identical {sum(stable)}/6 subcommands, selftest exit {codes[-1]}")
