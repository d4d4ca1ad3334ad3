"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
``test_*.py``) because the smoke runs start benchmark processes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def package():
    run.import_package()


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = run.WORK_ROOT / "selftest" / request.node.name.replace("/", "_")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def qbflow_bindings():
    """id of every attribute of every qbflow module and of PovmEffect."""
    from qbflow import arrival

    owners = [m for name, m in sys.modules.items()
              if name == "qbflow" or name.startswith("qbflow.")]
    owners.append(arrival.PovmEffect)
    return {(repr(o), k): id(v) for o in owners for k, v in vars(o).items()}


def dump_inputs(workload, seed):
    return json.dumps(wl.generate(workload, seed))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_configs(workload, tmp_path):
    first = dump_inputs(workload, 11)
    assert first == dump_inputs(workload, 11)
    assert first != dump_inputs(workload, 12)
    if workload != "chain":
        wl.prepare(workload, wl.generate(workload, 11), tmp_path / "a")
        wl.prepare(workload, wl.generate(workload, 11), tmp_path / "b")
        for path in sorted((tmp_path / "a" / "configs").iterdir()):
            assert path.read_bytes() == (tmp_path / "b" / "configs" / path.name).read_bytes()


@pytest.mark.parametrize("workload", ["scenarios", "march"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_configs_load_without_diagnostics(workload, seed, tmp_path):
    from qbflow.scenario_cli import load_config

    for label, tree in wl.generate(workload, seed):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(tree))
        config, diags = load_config(path)
        assert diags == [] and config is not None, (label, diags)


def test_scenario_strata_are_balanced():
    regimes = [tree["description"].split()[1] for _, tree in wl.generate("scenarios", 5)]
    assert {r: regimes.count(r) for r in wl.REGIMES} == {r: wl.N_GENERATED // 3 for r in wl.REGIMES}


def test_recorder_restores_every_binding():
    before = qbflow_bindings()
    rec = spans.Recorder()
    rec.install()
    from qbflow import gaussian_engine, histories, lindblad_dynamics, arrival

    wrapped = [histories.propagate_mixture, arrival.propagate_mixture,
               lindblad_dynamics.propagate_mixture, gaussian_engine.propagate_mixture,
               histories._propagate_density_split_raw, arrival.PovmEffect.expectation]
    assert all(getattr(f, "__wrapped_by_perfbench__", False) for f in wrapped)
    rec.remove()
    assert qbflow_bindings() == before


def test_untraced_run_leaves_the_package_unpatched(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("untraced run installed the recorder")

    before = qbflow_bindings()
    monkeypatch.setattr(spans.Recorder, "install", refuse)
    assert run.main(["--workload", "march", "--smoke", "--trace", "0"]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"]
    assert qbflow_bindings() == before


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.spans = [
        ["histories.delta_free", 0.0, 10.0, -1, 0, False],
        ["histories.f_integral", 1.0, 4.0, 0, 0, False],
        ["histories.f_integral", 5.0, 6.0, 0, 0, True],
    ]
    totals = rec.layer_totals()
    assert totals["histories.delta_free.self_s"] == 6.0
    assert totals["histories.f_integral.self_s"] == 4.0
    assert totals["histories.f_integral.calls"] == 2
    assert totals["histories.f_integral.errors"] == 1


def test_benchmark_json_lists_every_metric():
    per_layer = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert per_layer == spans.metric_specs()
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    plain = result_of(bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "0"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [
        result_of(bench("--workload", workload, "--seed", "3", "--smoke", "--trace", "1"))
        for _ in range(2)
    ]
    assert set(traced[0]["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for key in ("grid_engine.split_step.calls", "histories.f_integral.points",
                "grid_engine.propagate_wigner_qbm.calls", "arrival.march_steps"):
        assert traced[0]["metrics"][key] == traced[1]["metrics"][key], key


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "march", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
