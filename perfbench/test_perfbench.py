"""Tests of the benchmark's own machinery: tracer, statistics, oracles, failure handling.

Run with ``python3 -m pytest perfbench``.  They use stubs and oracle-built
values only, so they hold whatever the package's internals do.
"""

import json
import math
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harness
import layers
import oracles as orc
import run
import workloads
from tracer import Target, Tracer


@pytest.fixture
def stub_package():
    """stubpkg.core defines f and g (g calls f); stubpkg.user re-binds f as a from-import would."""
    pkg = types.ModuleType("stubpkg")
    core = types.ModuleType("stubpkg.core")
    exec("def f(x):\n    return x + 1\n\ndef g(x):\n    return f(x) * 2\n", core.__dict__)
    user = types.ModuleType("stubpkg.user")
    user.f = core.f
    pkg.f = core.f
    modules = {"stubpkg": pkg, "stubpkg.core": core, "stubpkg.user": user}
    sys.modules.update(modules)
    yield pkg, core, user
    for name in modules:
        del sys.modules[name]


def test_wrapper_counts_each_call_once_through_every_binding(stub_package):
    pkg, core, user = stub_package
    original = core.f
    targets = [
        Target("stub.f", "stubpkg.core", "f", lambda a, k, r: {"points": a[0]}),
        Target("stub.g", "stubpkg.core", "g"),
        Target("stub.gone", "stubpkg.core", "removed_later"),
        Target("stub.nomodule", "stubpkg.missing", "f"),
    ]
    with Tracer("stubpkg", targets) as tracer:
        assert user.f(1) == 2 and pkg.f(2) == 3 and core.f(3) == 4
        assert core.g(4) == 10
    f_stats, g_stats = tracer.stats["stub.f"], tracer.stats["stub.g"]
    assert f_stats.calls == 4
    assert f_stats.counts["points"] == 1 + 2 + 3 + 4
    assert g_stats.calls == 1
    assert g_stats.within["stub.f"]["calls"] == 1
    assert 0.0 <= g_stats.self_s <= g_stats.busy_s
    assert "stub.gone" not in tracer.stats and "stub.nomodule" not in tracer.stats
    assert user.f is original and pkg.f is original and core.f is original


def test_tracer_merges_exported_child_statistics(stub_package):
    _, core, _ = stub_package
    with Tracer("stubpkg", [Target("stub.f", "stubpkg.core", "f")]) as child:
        core.f(0)
    parent = Tracer("stubpkg", [])
    parent.merge(json.loads(json.dumps(child.export())))
    parent.merge(child.export())
    assert parent.stats["stub.f"].calls == 2


def test_layer_metrics_read_zero_for_missing_layers():
    values = layers.traced_values({})
    assert values["svgplot.bytes"] == 0
    assert "qmath.rk4.calls" not in values  # run.py fills absent names with 0


def test_percentile_tail_rule_and_goodput():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50.0) == 50.0
    assert harness.percentile(values, 90.0) == 90.0
    assert harness.tail(values) == (90.0, 90.0, 10)
    assert harness.tail(values[:99])[1] == 50.0            # p90 would leave only 9 beyond
    assert harness.tail(list(range(1000)))[1:] == (99.0, 10)
    assert harness.tail([1.0] * 5) == (1.0, 50.0, 2)       # too few samples for any rung
    failed = [1.0] * 80 + [math.inf] * 20
    assert harness.tail(failed)[0] == math.inf              # a failed op misses every limit
    tally = harness.Tally()
    for duration in (0.5, 0.5, 0.5):
        tally.add(duration)
    tally.add(0.5, failure="ValueError")
    assert tally.goodput == pytest.approx(1.5)
    assert tally.latencies == [0.5, 0.5, 0.5, math.inf]


def test_fastest_windows_pools_a_fixed_number_per_label():
    tally = harness.Tally()
    for duration in [2.0] * 4 + [1.0] * 4 + [3.0] * 4 + [1.0] * 3:   # trailing partial window dropped
        tally.add(duration, label="a")
    tally.add(5.0, label="b")
    tally.add(3.0, label="b", failure="ValueError")
    best, windows = harness.fastest_windows(tally, window_ops=4, keep=2)
    assert windows == 3 + 1
    assert best.durations == [1.0] * 4 + [2.0] * 4 + [5.0, 3.0]
    assert best.labels == ["a"] * 8 + ["b"] * 2
    assert best.failed == 1
    per_op, windows = harness.fastest_windows(tally, window_ops=1, keep=1)
    assert windows == 15 + 2
    assert sorted(per_op.durations) == [1.0, 3.0]


def test_raised_op_is_counted_as_failed_not_fatal():
    def op(item):
        if item == 1:
            raise ZeroDivisionError("boom")
        if item == 2:
            raise harness.OpFailed("exit 1")
        return item

    def check(item, result):
        if item == 3:
            raise orc.OracleMismatch("wrong")

    tally = harness.Tally()
    harness.run_ops(op, check, iter(range(5)), tally, lambda t: False)
    assert tally.attempted == 5 and tally.failed == 2
    assert tally.failures == {"ZeroDivisionError": 1, "exit 1": 1}
    assert sum(math.isinf(v) for v in tally.latencies) == 2
    assert tally.mismatches == ["wrong"]


def _sweep_from_oracle(x1):
    g1, _, rddi = orc.geometry_couplings(x1)
    omega = np.hypot(g1, rddi)
    return SimpleNamespace(x1=x1.copy(), g1=g1, rddi=rddi, ratio=rddi / g1,
                           c_peak=orc.peak_height(g1, rddi), t_peak=2 * np.pi / (3 * omega),
                           period=2 * np.pi / omega)


def test_oracles_accept_exact_values_and_reject_perturbed_ones():
    x1 = workloads.jittered_positions(np.random.default_rng(0), 16)
    sweep = _sweep_from_oracle(x1)
    workloads.check_sweep(sweep, x1)
    sweep.c_peak = sweep.c_peak.copy()
    sweep.c_peak[3] += 1e-9
    with pytest.raises(orc.OracleMismatch):
        workloads.check_sweep(sweep, x1)

    t = np.linspace(0.0, 50.0, 40)
    want = orc.concurrence(orc.propagate(*orc.geometry_couplings(x1), t))
    values = want.copy()
    workloads.check_concurrence_grid(values, want)
    values[5, 7] += 1e-8
    with pytest.raises(orc.OracleMismatch):
        workloads.check_concurrence_grid(values, want)
    values[5, 7] = np.nan
    with pytest.raises(orc.OracleMismatch):
        workloads.check_concurrence_grid(values, want)
    # g2 = 0: the eigh oracle and the closed form agree, so neither hides an error in the other.
    g1, rddi = 0.4, 0.3
    closed = orc.closed_form_concurrence(g1, rddi, t)
    workloads.check_concurrence_grid(orc.concurrence(orc.propagate(g1, 0.0, rddi, t))[0], closed)


def test_ratio_form_oracle_matches_direct_formula_and_never_overflows():
    g1, rddi = 0.7, 0.3
    omega = math.hypot(g1, rddi)
    direct = 2 * g1**2 * rddi / omega**3 * orc.PEAK_SHAPE
    assert orc.peak_height(g1, rddi) == pytest.approx(direct, rel=1e-14)
    assert orc.peak_height(1.0, 1.0 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert orc.peak_height(1e300, 1e300 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert orc.peak_height(1e-300, 1e-300 / math.sqrt(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert orc.peak_height(1e-300, 1e300) == 0.0


def test_cli_checks_reject_fail_lines_and_changed_svg():
    cli = workloads.Cli(seed=0)
    cli.check("selftest", b"PASS a\nPASS b\n")
    with pytest.raises(orc.OracleMismatch):
        cli.check("selftest", b"PASS a\nFAIL b\n")
    svg = b'<svg xmlns="http://www.w3.org/2000/svg"><rect x="1"/></svg>'
    cli.check("plot", svg)
    cli.check("plot", svg)
    with pytest.raises(orc.OracleMismatch):
        cli.check("plot", svg.replace(b'"1"', b'"2"'))
    with pytest.raises(orc.OracleMismatch):
        cli.check("plot", b"<svg")


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
