"""Tests of the benchmark harness itself (not of qotsim).

Run with `python -m pytest bench` from the repository root.
"""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qotsim import gf2, protocol  # noqa: E402
from qotsim.errors import ResourceError  # noqa: E402


def _raw_targets():
    out = []
    for mod, path in tracing.TARGETS:
        owner, attr = tracing._resolve(importlib.import_module(f"qotsim.{mod}"), path)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_tracer_restores_every_patched_attribute():
    before = _raw_targets()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            for owner, attr, raw in before:
                assert vars(owner)[attr] is not raw
            1 / 0
    for owner, attr, raw in before:
        assert vars(owner)[attr] is raw


def test_tracer_self_time_excludes_wrapped_children():
    wl = workloads.Codes()
    specs = wl.specs(5, 2)
    with tracing.Tracer() as tracer:
        res = run.run_pass(wl, specs, [wl.prepare(s) for s in specs], tracer)
    assert res.failed == 0
    counts = tracer.counts()
    assert counts["gf2.min_distance.calls"] == 2
    assert counts["gf2.min_distance.span_words"] == sum(1 << len(s["f"]) for s in specs)
    assert counts["protocol.bob_decode.coset_words"] == sum(
        1 << (len(s["u"]) - s["r"]) for s in specs)
    names = np.frombuffer(tracer.span_name, dtype=np.uint8)
    parent = np.frombuffer(tracer.span_parent, dtype=np.int32)
    span = (np.frombuffer(tracer.span_end, dtype=np.int64)
            - np.frombuffer(tracer.span_start, dtype=np.int64))
    decode = tracing.NAMES.index("protocol.bob_decode")
    children = span[np.isin(parent, np.nonzero(names == decode)[0])].sum()
    assert tracer.self_ns[decode] == span[names == decode].sum() - children
    assert set(np.frombuffer(tracer.span_op, dtype=np.int32)) == {0, 1}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_generates_an_identical_op_list_twice(name):
    wl = workloads.WORKLOADS[name]()
    first = wl.specs(7, 40)
    assert first == workloads.WORKLOADS[name]().specs(7, 40)
    assert json.dumps(first) != json.dumps(wl.specs(8, 40))
    assert sorted(s["shape"] for s in wl.warmup_specs(7)) == sorted(wl.shapes)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_lists_are_whole_blocks_of_one_shape_mix(name):
    wl = workloads.WORKLOADS[name]()
    for seconds in (1, 7, 15):
        assert wl.op_count(seconds) % wl.block_ops == 0
    n = wl.op_count(15)

    def mixes(seed):
        specs = wl.specs(seed, n)
        return [sorted(s["shape"] for s in specs[lo:lo + wl.block_ops])
                for lo in range(0, n, wl.block_ops)]

    assert mixes(1) == mixes(2)


def test_block_scales_follow_the_kernel_but_ignore_one_slow_timing():
    ms = 1_000_000
    steady = [40 * ms] * 6
    assert calibration.block_scales(steady, 5) == [calibration.CALIBRATION_MS / 40] * 5
    assert calibration.block_scales(steady[:3] + [400 * ms] + steady[4:], 5) == \
        calibration.block_scales(steady, 5)
    slower = calibration.block_scales([40 * ms] * 4 + [80 * ms] * 6, 9)
    assert slower[0] == calibration.CALIBRATION_MS / 40
    assert slower[-1] == calibration.CALIBRATION_MS / 80
    with pytest.raises(ValueError):
        calibration.block_scales(steady, 6)


def test_calibrated_pass_times_the_kernel_around_every_block():
    class Kernel:
        def time(self):
            return 40_000_000, 30_000_000

    class Workload:
        block_ops = 3

        def check(self, spec, out):
            return None

        def canonical(self, spec, out):
            return b""

    specs = [{"shape": "noop"}] * 6
    res = run.run_pass(Workload(), specs, [lambda: None] * 6, kernel=Kernel())
    assert (res.failed, len(res.kernel_wall_ns), len(res.kernel_cpu_ns)) == (0, 3, 3)


def test_corrupted_output_counts_as_failed(monkeypatch):
    real = protocol.bob_decode

    def corrupted(*args, **kwargs):
        b_hat, word = real(*args, **kwargs)
        return b_hat, word ^ np.eye(1, word.size, 0, dtype=np.uint8)[0]

    wl = workloads.Codes()
    specs = wl.specs(3, 3)
    monkeypatch.setattr(protocol, "bob_decode", corrupted)
    res = run.run_pass(wl, specs, [wl.prepare(s) for s in specs])
    assert (res.failed, res.raised) == (3, 0)


def test_raising_op_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise ResourceError("sized to raise")

    wl = workloads.Codes()
    specs = wl.specs(3, 2)
    monkeypatch.setattr(gf2, "min_distance", broken)
    res = run.run_pass(wl, specs, [wl.prepare(s) for s in specs])
    assert (res.failed, res.raised, len(res.wall_ns)) == (2, 2, 2)


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
