"""Smoke checks of the benchmark itself, at tiny sizes; they finish in seconds.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

The tier-1 suite never collects this file (pytest's testpaths is tests/).
"""

import functools
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


@functools.cache
def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3"]
        + ["--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_clean_with_every_metric(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


def test_traces_cover_the_layers_each_workload_claims():
    def layer_time(metrics, prefix):
        return sum(
            m["value"]
            for name, m in metrics.items()
            if name.startswith(prefix) and name.endswith("_s") and not name.endswith("_per_s")
        )

    capacity = run("outage-capacity", 1)["metrics"]
    negotiation = run("set-negotiation", 1)["metrics"]
    discovery = run("discovery", 1)["metrics"]
    assert layer_time(capacity, "chains.") == 0 and layer_time(negotiation, "chains.") == 0
    assert negotiation["routing.schedule_s"]["value"] == 0
    assert layer_time(discovery, "economics.") == 0
    assert discovery["routing.schedule_s"]["value"] == 0
    assert capacity["routing.schedule_s"]["value"] > 0
    assert negotiation["economics.breakdowns"]["value"] > 0


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w != "bundled"])
def test_generated_scenarios_are_valid_for_any_seed(workload, tmp_path):
    import workloads
    from m3sim.scenario import load_scenario

    for sizes in (workloads.TINY, workloads.FULL):
        for seed in range(25):
            generated = workloads.GENERATORS[workload](seed, sizes)
            for name, text in generated.files.items():
                path = tmp_path / name
                path.write_text(text)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # a duplicate or a clash warns
                    scenario = load_scenario(path)
                assert not scenario.notes
                dest = scenario.dest.indices()
                for overlay in scenario.overlays:
                    assert not dest & (set(overlay.sources) | overlay.unavailable)
                assert not dest & set(scenario.users.values())
                assert len(set(scenario.users.values())) == len(scenario.users)


def test_reference_comparison_tolerates_rounding_only():
    from checks import compare, fingerprint

    text = "a,b\n1.5,x\n2.0,y\n"
    assert compare(fingerprint(text), fingerprint(text)) == []
    assert compare(fingerprint(text), fingerprint("a,b\n1.5,x\n2.000000000001,y\n")) == []
    assert compare(fingerprint(text), fingerprint("a,b\n1.5,x\n2.0000001,y\n"))
    assert compare(fingerprint(text), fingerprint("a,b\n2.0,x\n1.5,y\n"))  # rows swapped
    assert compare(fingerprint(text), fingerprint("a,b\n1.5,x\n2.0,z\n"))


def test_a_missing_wrapped_name_fails_loudly(monkeypatch):
    import m3sim.cli
    import m3sim.economics
    from spans import TraceError, Tracer

    main = m3sim.cli.main
    monkeypatch.delattr(m3sim.economics, "link_sinr")
    with pytest.raises(TraceError, match="link_sinr"):
        Tracer().install()
    assert m3sim.cli.main is main  # what was wrapped before the error is restored


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
