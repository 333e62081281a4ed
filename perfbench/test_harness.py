"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench

Covers the output checks (they pass on correct output and catch a changed
one), the tracer (cross-module names are rebound, every per-layer metric is
produced, a module BENCHMARK.json does not name is reported apart, spans
link to earlier spans) and the refusal to run without the
package's sources.  The full workloads are not run here.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def mods():
    return child.import_package()


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(child.WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert all((ROOT / p).is_dir() for p in SPEC["paths"])


def test_oracle_counts_exceptional_classes():
    assert [len(child.minus_one_classes(k)) for k in (3, 4, 5, 6, 7)] == [6, 10, 16, 27, 56]


def test_paper_check_accepts_golden_and_catches_a_change():
    golden = child.GOLDEN.read_text()
    assert child.paper_check(None, (0, golden)) == (17, 0, None)
    changed = golden.replace('"status": "pass"', '"status": "fail"', 1)
    assert child.paper_check(None, (1, changed))[1] == 1
    assert child.paper_check(None, (None, "RuntimeError: boom"))[1] == 17


def test_ksymp_check_on_small_k(mods):
    surfaces = child.ksymp_inputs(mods, 0, ks=(3, 4))
    cones = child.ksymp_run(mods, surfaces)
    assert child.ksymp_check(surfaces, cones, expected={}) == (2, 0, None)
    assert child.ksymp_check(surfaces, cones, expected={4: 1})[1] == 1


def test_validate_inputs_follow_the_seed(mods):
    same = [c.curves for c in child.validate_inputs(mods, 3, k=4)]
    assert same == [c.curves for c in child.validate_inputs(mods, 3, k=4)]
    assert same != [c.curves for c in child.validate_inputs(mods, 4, k=4)]


def test_validate_check_reverifies_decompositions(mods):
    configs = child.validate_inputs(mods, 1, k=4)
    outputs = child.validate_run(mods, configs)
    assert child.validate_check(configs, outputs) == (4, 0, None)
    report, lp_calls = outputs[0]
    target, x, terms = lp_calls[-1]
    lp_calls[-1] = (target, x, [(v + Fraction(1, 2), col) for v, col in terms])
    assert child.validate_check(configs, outputs)[1] == 1


def test_speed_probe_samples_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) > 2 and 0 < probe.busy_s < 0.1
    assert speed.to_reference(2.0, [speed.REFERENCE_KERNEL_S] * 3) == pytest.approx(2.0)


TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
import child
from tracer import Tracer
mods = child.import_package()
tracer = Tracer()
tracer.install(mods)
surfaces = child.ksymp_inputs(mods, 0, ks=(4,))
child.ksymp_run(mods, surfaces)
configs = child.validate_inputs(mods, 1, k=4)
child.validate_run(mods, configs)
tracer.stats["newmodule.solve"] = [1, 0.5, 0.5]  # a module BENCHMARK.json does not name
metrics, untracked = child.layer_metrics(tracer, mods)
print(json.dumps({
    "metrics": metrics,
    "untracked": untracked,
    "spans": tracer.spans,
    "rebound": mods["configurations"].pair is mods["lattice"].pair,
    "wrapped": hasattr(mods["configurations"].pair, "__wrapped__"),
}))
"""


def test_tracer_on_small_inputs():
    proc = subprocess.run([sys.executable, "-c", TRACED, str(HERE)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    metrics = out["metrics"]
    wanted = {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_frac"}
    assert set(metrics) == wanted
    assert out["rebound"] and out["wrapped"]
    assert out["untracked"] == {"newmodule.self_s": 0.5}
    assert metrics["cones.dd.calls"] == 1 + 4  # one per cone, one per configuration
    assert metrics["exactlp.lp.calls"] == 4 * 10 and metrics["exactlp.lp.feasible_frac"] == 1
    assert metrics["lattice.pair.calls"] > 0 and metrics["linalg.calls"] > 0
    assert metrics["exactlp.self_s"] > 0 and metrics["cones.self_s"] > 0
    for i, (name, parent, start, end) in enumerate(out["spans"]):
        assert -1 <= parent < i and start <= end


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ksymp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
