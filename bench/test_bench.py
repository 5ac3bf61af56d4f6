"""Tests of the benchmark's own machinery: run with `python3 -m pytest bench`."""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sdar_glm as sg  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END, PER_LAYER, TAIL_BEYOND, tail_percentile  # noqa: E402


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n", [11, 12, 20, 57, 200])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n) * 0.01 + 1.0)
    value, pct, count = tail_percentile(samples)
    beyond = sum(s > value for s in samples)
    assert beyond == TAIL_BEYOND  # at least ten, and no higher rank has ten
    assert count == n
    assert pct == pytest.approx(100.0 * (n - TAIL_BEYOND) / n)


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * TAIL_BEYOND)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tr.Span(0, "op", 0.0, 10.0, None, 0),
        tr.Span(1, "a", 1.0, 4.0, 0, 0),
        tr.Span(2, "b", 3.0, 5.0, 0, 0),  # overlaps a: together they cover 1..5
        tr.Span(3, "c", 1.5, 2.0, 1, 0),
        tr.Span(4, "d", 7.0, 8.0, 0, 0),
    ]
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 4.0 - 1.0, 1: 3.0 - 0.5, 2: 2.0, 3: 0.5, 4: 1.0})


def test_counting_family_counts_only_inside_restricted_spans():
    t = tr.Tracer()
    family = tr.counting_logistic(t)
    theta = np.zeros(3)
    family.cumulant(theta)  # no op open
    with t.op(0):
        family.cumulant(theta)  # innermost span is the op
        with t.span("solver.restricted"):
            family.cumulant(theta)
            family.variance(theta)
            with t.span("families.x_pass"):
                family.cumulant(theta)  # innermost is no longer restricted
    assert t.counts == {"solver.linesearch.evals": 1, "solver.newton": 1}


def test_value_evaluations_split_exactly_between_restricted_and_nll():
    t = tr.Tracer()
    family = tr.counting_logistic(t)
    calls = []
    counted_cumulant = family.cumulant
    family.cumulant = lambda theta: calls.append(t.innermost()) or counted_cumulant(theta)
    cfg = sg.SimConfig(n=200, p=50, k=3, rho=0.2, range_ratio=3.0, scheme=sg.SCHEME_AR1, seed=3)
    data, _, _ = sg.generate_instance(cfg)
    with tr.installed(t, family):
        with t.op(0):
            sg.gsdar_fit(family, data, sg.SdarConfig(sparsity_t=3))
    nll_spans = sum(s.name == "families.nll" for s in t.spans)
    assert t.counts["solver.linesearch.evals"] > 0
    assert len(calls) == t.counts["solver.linesearch.evals"] + nll_spans


def test_installed_restores_every_rebound_name():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tr.WRAPPED}
    before_logistic = sg.simulate.LOGISTIC
    t = tr.Tracer()
    with tr.installed(t, tr.counting_logistic(t)):
        assert sg.solver.gradient is not before[("sdar_glm.solver", "gradient")]
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())
    assert sg.simulate.LOGISTIC is before_logistic


class SmallFitWide(workloads.FitWide):
    SIM = dict(workloads.FitWide.SIM, n=60, p=300)


class SmallIngest(workloads.IngestCli):
    N, P = 50, 400


def _instance_bytes(seed, tmp_path):
    wl = SmallFitWide()
    wl.setup(seed, tmp_path)
    return b"".join(d.X.tobytes() + d.y.tobytes() + b.tobytes() for d, b, _ in wl.instances)


def _libsvm_digest(seed, tmp_path):
    wl = SmallIngest()
    wl.setup(seed, tmp_path)
    with open(wl.data_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    wl.cleanup()
    return digest


def test_generation_is_a_function_of_the_seed(tmp_path):
    assert _instance_bytes(5, tmp_path) == _instance_bytes(5, tmp_path)
    assert _instance_bytes(5, tmp_path) != _instance_bytes(6, tmp_path)
    assert _libsvm_digest(5, tmp_path) == _libsvm_digest(5, tmp_path)
    assert _libsvm_digest(5, tmp_path) != _libsvm_digest(6, tmp_path)
