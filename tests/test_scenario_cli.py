"""Scenario front-end: config validation, runs, artifacts, exit codes.

The contract under test: a scenario config either validates cleanly or
produces diagnostics naming the offending keys; a run writes one CSV per
analysis plus a summary, deterministically (two runs of one config are
byte-identical — there is no randomness anywhere in the pipeline); the
command-line front end maps outcomes onto exit status 0/1/2 =
ok / gate-failure / config-error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from qbflow import scenario_cli
from qbflow.core_model import PhysParams
from qbflow.scenario_cli import (
    _seedless_guard,
    bundled_examples,
    load_config,
    main,
    run_scenario,
    validate_config,
)

# a small but complete scenario: every block present, one fast analysis
BASE = {
    "description": "test scenario",
    "physical": {"hbar": 1.0, "mass": 1.0, "D": 0.0},
    "state": {"gaussian": {"p0": -10.0, "x0": 8.0, "sigma": 1.0}},
    "grid": {"n": 256},
    "time": {"t1": 0.0, "t2": 3.0, "n_t": 201},
    "analyses": ["current"],
    "thresholds": {"mass_window": [0.99, 1.01]},
}


def _write(tmp_path, tree, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree, indent=2))
    return str(path)


def _variant(**edits):
    tree = json.loads(json.dumps(BASE))
    for dotted, value in edits.items():
        node = tree
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if value is None:
            node.pop(parts[-1], None)
        else:
            node[parts[-1]] = value
    return tree


class TestValidation:
    def test_base_config_is_clean(self, tmp_path):
        assert validate_config(_write(tmp_path, BASE)) == []

    def test_bundled_examples_all_validate(self, tmp_path):
        names = []
        for name, description, entry in bundled_examples():
            path = tmp_path / f"{name}.json"
            path.write_text(entry.read_text())
            assert validate_config(str(path)) == [], name
            assert description
            names.append(name)
        assert names == ["backflow", "free_gaussian", "qbm_positivity"]

    def test_missing_mass(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(**{"physical.mass": None})))
        assert any("physical.mass required" in d for d in diags)

    def test_inverted_interval(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(**{"time.t2": -1.0})))
        assert any("interval inverted" in d for d in diags)

    def test_inconsistent_noise_spec(self, tmp_path):
        tree = _variant(**{"physical.D": 2.0, "physical.gamma": 0.5, "physical.kT": 3.0})
        diags = validate_config(_write(tmp_path, tree))
        # D = 2 m gamma kT would demand 3.0; the diagnostic quotes the product
        assert any("2*m*gamma*kT" in d for d in diags)

    def test_consistent_noise_spec_is_clean(self, tmp_path):
        tree = _variant(**{"physical.D": 3.0, "physical.gamma": 0.5, "physical.kT": 3.0})
        assert validate_config(_write(tmp_path, tree)) == []

    def test_bath_pair_alone(self, tmp_path):
        tree = _variant(**{"physical.D": None, "physical.gamma": 0.25, "physical.kT": 2.0})
        path = _write(tmp_path, tree)
        assert validate_config(path) == []
        config, _ = load_config(path)
        assert config.params.D == pytest.approx(2.0 * 0.25 * 2.0)

    def test_thermal_construction(self, tmp_path):
        # the mass enters the bath product: D = 2 m gamma kT = 2 * 2 * 0.5 * 3
        tree = _variant(**{"physical.mass": 2.0, "physical.D": None,
                           "physical.gamma": 0.5, "physical.kT": 3.0})
        config, _ = load_config(_write(tmp_path, tree))
        assert config.params.D == pytest.approx(2.0 * 2.0 * 0.5 * 3.0, rel=1e-15)
        assert config.params.mass == 2.0

    def test_infinite_temperature_rejected(self, tmp_path, capsys):
        tree = _variant(**{"physical.D": None, "physical.gamma": 0.5, "physical.kT": math.inf})
        path = _write(tmp_path, tree)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "physical.kT must be finite, got inf" in err
        assert "Traceback" not in err

    def test_no_noise_spec_at_all(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(**{"physical.D": None})))
        assert any("physical.D" in d and "gamma" in d for d in diags)

    def test_two_state_variants(self, tmp_path):
        tree = _variant(**{"state.cat": {"separation": 2.0, "p0": -1.0, "sigma": 1.0}})
        diags = validate_config(_write(tmp_path, tree))
        assert any("exactly one" in d for d in diags)

    def test_unknown_state_field(self, tmp_path):
        tree = _variant(**{"state.gaussian.wobble": 3.0})
        diags = validate_config(_write(tmp_path, tree))
        assert any("unknown field 'wobble'" in d for d in diags)

    def test_unknown_analysis(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(analyses=["wibble"])))
        assert any("unknown analysis 'wibble'" in d for d in diags)

    def test_unknown_top_level_key(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(bogus=1)))
        assert any("unknown top-level key 'bogus'" in d for d in diags)

    def test_unknown_threshold_key(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(**{"thresholds.wobble": 1.0})))
        assert any("thresholds: unknown key 'wobble'" in d for d in diags)

    def test_malformed_mass_window(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(**{"thresholds.mass_window": [1.0]})))
        assert any("mass_window" in d for d in diags)

    def test_mass_window_entries_finite(self, tmp_path, capsys):
        # a 400-digit integer is a JSON number, but no double holds it; the
        # current gate converts the window to floats at run time
        path = _write(tmp_path, _variant(**{"thresholds.mass_window": [0, 10 ** 400]}))
        assert main(["validate", path]) == 2
        assert "thresholds.mass_window[1] must be finite" in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_require_decoherent_is_boolean(self, tmp_path, capsys, value):
        # a string such as "no" is truthy: it would demand the very
        # decoherence it reads as waiving
        tree = _variant()
        tree["thresholds"]["require_decoherent"] = value  # _variant drops None
        path = _write(tmp_path, tree)
        assert main(["validate", path]) == 2
        assert "thresholds.require_decoherent must be true or false" in capsys.readouterr().err
        for flag in (True, False):
            flagged = _variant(**{"thresholds.require_decoherent": flag})
            assert validate_config(_write(tmp_path, flagged)) == []

    @pytest.mark.parametrize("key", ["physical.bogus", "grid.bogus", "time.n_T"])
    def test_unknown_block_key(self, tmp_path, capsys, key):
        # a misspelt field must not run on its default (n_T -> n_t = 201)
        path = _write(tmp_path, _variant(**{key: 5}))
        assert main(["validate", path]) == 2
        block, leaf = key.split(".")
        assert f"{block}: unknown key {leaf!r}" in capsys.readouterr().err

    def test_null_mass_window_rejected(self, tmp_path, capsys):
        # null is not an omitted gate: it must not switch the current gate off
        tree = _variant()
        tree["thresholds"]["mass_window"] = None  # _variant drops None
        assert main(["validate", _write(tmp_path, tree)]) == 2
        assert "thresholds.mass_window must be [lo, hi]" in capsys.readouterr().err

    def test_state_diagnostics_name_full_path(self, tmp_path):
        tree = _variant(state={"cat": {"separation": 2.0, "p0": -1.0, "sigma": 1.0, "x0": "a"}})
        diags = validate_config(_write(tmp_path, tree))
        assert diags == ["state.cat.x0 must be a number, got 'a'"]

    @pytest.mark.parametrize("analyses, diag", [
        (["current", "current"], "analyses: duplicate 'current'"),
        ([["current"], ["current"]], "analyses: unknown analysis ['current']"),
    ])
    def test_duplicate_analyses_rejected(self, tmp_path, capsys, analyses, diag):
        # a repeat would compute twice and list its files twice in the manifest;
        # an unhashable entry is still a diagnostic, not a TypeError
        assert main(["validate", _write(tmp_path, _variant(analyses=analyses))]) == 2
        assert diag in capsys.readouterr().err

    def test_stochastic_needs_eps(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(analyses=["stochastic"])))
        assert any("time.eps" in d for d in diags)

    def test_eps_must_step_the_window(self, tmp_path):
        tree = _variant(analyses=["stochastic"], **{"time.eps": 0.7})
        diags = validate_config(_write(tmp_path, tree))
        assert any("whole number" in d for d in diags)

    def test_povm_needs_noise(self, tmp_path):
        diags = validate_config(_write(tmp_path, _variant(analyses=["povm"])))
        assert any("povm" in d and "D > 0" in d for d in diags)

    @pytest.mark.parametrize("analysis", ["povm", "stochastic", "histories"])
    def test_gamma_zero_routes_reject_dissipation(self, tmp_path, capsys, analysis):
        # the grid routes propagate, and the effect operator is derived, at gamma = 0 only
        tree = _variant(
            analyses=[analysis],
            **{"physical.D": 2.0, "physical.gamma": 0.1, "physical.kT": 10.0,
               "time.t1": 0.5, "time.t2": 1.0, "time.eps": 0.0125},
        )
        path = _write(tmp_path, tree)
        diag = f"{analysis} analysis needs gamma = 0 (negligible dissipation)"
        assert validate_config(path) == [diag]
        assert main(["validate", path]) == 2
        assert capsys.readouterr().err == diag + "\n"

    @pytest.mark.parametrize("key, value", [("physical.D", math.nan), ("time.t2", math.inf)])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, key, value):
        # json accepts NaN and Infinity literals; neither may pass as "config ok"
        path = _write(tmp_path, _variant(**{key: value}))
        assert main(["validate", path]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    def test_bath_pair_entries_finite(self, tmp_path, capsys):
        # without D the analysis prerequisites derive it as 2 m gamma kT
        tree = _variant(**{"physical.D": None, "physical.gamma": 10 ** 400, "physical.kT": 1.0})
        path = _write(tmp_path, tree)
        assert main(["validate", path]) == 2
        assert "physical.gamma must be finite" in capsys.readouterr().err

    def test_bath_product_finite(self, tmp_path, capsys):
        # each entry is finite, but 2 m gamma kT overflows; inf - D never
        # exceeds 1e-9 * inf, so the D consistency check alone lets it pass
        tree = _variant(**{"physical.D": 2.0, "physical.gamma": 1e200, "physical.kT": 1e200})
        path = _write(tmp_path, tree)
        assert main(["validate", path]) == 2
        err = capsys.readouterr().err
        assert "physical.gamma, physical.kT: 2*m*gamma*kT = inf must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [{}, "0.01", math.inf])
    def test_numeric_thresholds_checked(self, tmp_path, capsys, value):
        # the analyses compare these gates with floats at run time
        path = _write(tmp_path, _variant(**{"thresholds.delta_max": value}))
        assert main(["validate", path]) == 2
        assert "thresholds.delta_max must be" in capsys.readouterr().err

    @pytest.mark.parametrize("d_value", [0.0, None])
    def test_dissipation_without_noise_rejected(self, tmp_path, capsys, d_value):
        # PhysParams refuses gamma > 0 with D = 0; the config layer must say
        # so as a diagnostic (exit 2), not let the constructor raise
        tree = _variant(**{"physical.D": d_value, "physical.gamma": 0.5, "physical.kT": 0.0})
        path = _write(tmp_path, tree)
        assert main(["validate", path]) == 2
        assert "gamma=0.5 > 0 requires D > 0" in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_n_t_upper_bound(self, tmp_path, capsys):
        # a 1e9-sample current scan would allocate 8 GB and run for hours
        path = _write(tmp_path, _variant(**{"time.n_t": 1_000_000_000}))
        assert main(["validate", path]) == 2
        assert "time.n_t must be an integer in [2, 100000]" in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert validate_config(_write(tmp_path, _variant(**{"time.n_t": 100_000}))) == []

    def test_march_steps_upper_bound(self, tmp_path, capsys):
        # eps = 1e-8 on [0.5, 1] would march 1e8 steps of a grid up to 512²
        window = {"time.t1": 0.5, "time.t2": 1.0}
        path = _write(tmp_path, _variant(analyses=["stochastic"], **window, **{"time.eps": 1e-8}))
        assert main(["validate", path]) == 2
        assert "at most 10000 march steps" in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        at_cap = _variant(analyses=["stochastic"], **window, **{"time.eps": 1e-4})
        assert validate_config(_write(tmp_path, at_cap)) == []

    def test_unreadable_file(self, tmp_path):
        diags = validate_config(str(tmp_path / "nope.json"))
        assert any("cannot read" in d for d in diags)

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        diags = validate_config(str(path))
        assert any("cannot parse" in d for d in diags)

    def test_schema_doc_matches_field_table(self):
        # every field config_schema.md documents has a rule, and every rule is documented
        doc = (Path(scenario_cli.__file__).parent / "examples" / "config_schema.md").read_text()
        sections = dict(re.findall(r"^## `(\w+)`[^\n]*\n(.*?)(?=^## |\Z)", doc, re.M | re.S))
        documented = {
            block: set(re.findall(r"`(\w+)` \(", sections[block]))
            for block in ("physical", "grid", "time")
        }
        documented["thresholds"] = set(re.findall(r"^\| `(\w+)`", sections["thresholds"], re.M))
        for kind, text in re.findall(r"^- `(\w+)`:(.*?)(?=^- |\Z)", sections["state"], re.M | re.S):
            documented[f"state.{kind}"] = set(re.findall(r"`(\w+)`", text))
        assert documented == {path: set(rules) for path, rules in scenario_cli._FIELDS.items()}

    def test_load_config_round_trips(self, tmp_path):
        config, diags = load_config(_write(tmp_path, BASE))
        assert diags == []
        assert config.analyses == ("current",)
        assert (config.grid_n, config.t1, config.t2, config.n_t) == (256, 0.0, 3.0, 201)
        assert config.thresholds == {"mass_window": (0.99, 1.01)}


_LEAF = hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=6)
_JSON = hst.recursive(
    _LEAF,
    lambda inner: hst.lists(inner, max_size=4)
    | hst.dictionaries(hst.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_PATHS = [
    "physical", "physical.hbar", "physical.mass", "physical.D", "physical.gamma",
    "physical.kT", "state", "grid", "grid.n", "time", "time.t1", "time.t2",
    "time.n_t", "time.eps", "analyses", "thresholds", "thresholds.mass_window",
    "thresholds.delta_max", "out_dir", "description", "physical.bogus", "grid.bogus",
    "time.bogus", "thresholds.require_decoherent", "thresholds.povm_gap_max",
]
_STATE_BLOCKS = [
    {"gaussian": {"p0": -10.0, "x0": 8.0, "sigma": 1.0}},
    {"cat": {"separation": 3.0, "p0": -6.0, "sigma": 1.0, "x0": 10.0}},
    {"two_momentum": {"p1": -6.0, "p2": -9.0, "x0": 10.0, "sigma": 1.0,
                      "ratio": 1.0, "rel_phase": 0.0}},
]


@hst.composite
def _config_trees(draw):
    """Arbitrary JSON, or a valid config with a few subtrees replaced."""
    if draw(hst.integers(0, 3)) == 0:
        return draw(_JSON)
    tree = _variant(
        analyses=list(scenario_cli._ANALYSES), **{"physical.D": 2.0, "time.eps": 0.5}
    )
    tree["state"] = json.loads(json.dumps(draw(hst.sampled_from(_STATE_BLOCKS))))
    kind = next(iter(tree["state"]))
    paths = _PATHS + [f"state.{kind}.{f}" for f in tree["state"][kind]]
    edits = draw(hst.dictionaries(hst.sampled_from(paths), _LEAF | _JSON, max_size=3))
    for dotted, value in edits.items():
        node = tree
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {}) if isinstance(node, dict) else {}
        if isinstance(node, dict):
            node[parts[-1]] = value
    return tree


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_config_trees())
def test_load_config_never_raises(tree):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(tree))
        config, diags = load_config(str(path))
    assert (config is None) == bool(diags)
    assert all(isinstance(d, str) for d in diags)


class TestRunScenario:
    def test_free_gaussian_sweeps_unit_mass(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        summary = run_scenario(config, out_dir=tmp_path / "out")
        assert summary.all_ok
        assert summary.scalar("current", "p_interval") == pytest.approx(1.0, abs=0.01)
        # the manifest invariant: every listed file exists on success
        for name in summary.manifest:
            assert (tmp_path / "out" / name).is_file()
        assert (tmp_path / "out" / "summary.txt").is_file()

    def test_runs_are_byte_identical(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        run_scenario(config, out_dir=tmp_path / "a")
        run_scenario(config, out_dir=tmp_path / "b")
        for name in ("current.csv", "current.gnuplot", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

    def test_scalar_lookup_is_strict(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        summary = run_scenario(config, out_dir=tmp_path / "out")
        with pytest.raises(KeyError):
            summary.scalar("current", "no_such_scalar")

    def test_gate_failure_is_contained(self, tmp_path):
        tree = _variant(**{"thresholds.mass_window": [1.5, 2.0]})
        config, _ = load_config(_write(tmp_path, tree))
        summary = run_scenario(config, out_dir=tmp_path / "out")
        assert not summary.all_ok
        outcome = summary.outcomes[0]
        assert outcome.status == "gate-failed"
        assert "mass window" in outcome.note
        # artifacts are still written for a post-mortem
        assert (tmp_path / "out" / "current.csv").is_file()

    def test_analysis_error_is_stage_tagged(self, tmp_path):
        # povm split needs t >= sqrt((3/2 + sqrt 3) hbar m / D) ~ 1.27;
        # a window ending at 0.6 cannot build the effect operator
        tree = _variant(
            analyses=["povm"],
            **{"physical.D": 2.0, "time.t1": 0.5, "time.t2": 0.6},
        )
        config, _ = load_config(_write(tmp_path, tree))
        summary = run_scenario(config, out_dir=tmp_path / "out")
        assert not summary.all_ok
        outcome = summary.outcomes[0]
        assert outcome.status == "error"
        assert "too early" in outcome.note
        assert outcome.files == ()

    def test_non_finite_scalar_is_an_error(self, tmp_path, monkeypatch):
        real = scenario_cli._RUNNERS["current"]

        def broken(cfg):
            status, scalars, writers, note = real(cfg)
            return status, ((scalars[0][0], math.nan),) + scalars[1:], writers, note

        monkeypatch.setitem(scenario_cli._RUNNERS, "current", broken)
        config, _ = load_config(_write(tmp_path, BASE))
        summary = run_scenario(config, out_dir=tmp_path / "out")
        assert not summary.all_ok
        outcome = summary.outcomes[0]
        assert outcome.status == "error"
        assert "non-finite p_interval = nan" in outcome.note
        assert "[current] error" in (tmp_path / "out" / "summary.txt").read_text()

    def test_arithmetic_error_is_an_error_outcome(self, tmp_path):
        # a bath too strong for float arithmetic: the corrected current
        # squares hbar b = 5e199 and raises OverflowError mid-analysis
        config, _ = load_config(_write(tmp_path, BASE))
        config = dataclasses.replace(
            config, params=PhysParams(hbar=1.0, mass=1.0, D=2.0, gamma=1e200)
        )
        summary = run_scenario(config, out_dir=tmp_path / "out")
        outcome = summary.outcomes[0]
        assert outcome.status == "error"
        assert outcome.note.startswith("OverflowError")

    def test_grid_override(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        summary = run_scenario(config, out_dir=tmp_path / "out", grid_n=64)
        assert summary.all_ok  # the current analysis is grid-free anyway


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Run every bundled example once; the contract caps each at 60 s."""
    base = tmp_path_factory.mktemp("examples")
    out = {}
    for name, _description, entry in bundled_examples():
        path = base / f"{name}.json"
        path.write_text(entry.read_text())
        config, diags = load_config(str(path))
        assert diags == [], name
        out[name] = run_scenario(config, out_dir=base / name)
    return out


class TestBundledExamples:
    def test_all_examples_pass_their_gates(self, runs):
        for name, summary in runs.items():
            assert summary.all_ok, f"{name}: {summary.text()}"

    def test_free_gaussian_normalisation(self, runs):
        p = runs["free_gaussian"].scalar("current", "p_interval")
        assert p == pytest.approx(1.0, abs=0.01)

    def test_backflow_reports_negative_current(self, runs):
        summary = runs["backflow"]
        assert summary.scalar("current", "min_J") < 0.0
        # the dip sits inside the scanned window, not at its edge
        t_min = summary.scalar("current", "min_J_time")
        assert 0.2 < t_min < 0.657

    def test_positivity_onset_in_localisation_units(self, runs):
        summary = runs["qbm_positivity"]
        t_pos = summary.scalar("povm", "positivity_time")
        tau_l = summary.scalar("povm", "tau_l")
        assert t_pos <= 0.66 * tau_l
        # the onset is the closed-form admissibility threshold
        assert t_pos == pytest.approx((3.0 / 16.0) ** 0.25 * tau_l, rel=1e-6)

    def test_povm_matches_current_integral(self, runs):
        assert runs["qbm_positivity"].scalar("povm", "rel_gap") <= 0.05


MULTI_CONFIG = {
    "description": "all grid-based analyses on one noisy Gaussian",
    "physical": {"hbar": 1.0, "mass": 1.0, "D": 2.0},
    "state": {"gaussian": {"p0": -10.0, "x0": 8.0, "sigma": 1.0}},
    "grid": {"n": 256},
    "time": {"t1": 0.5, "t2": 1.0, "n_t": 51, "eps": 0.0125},
    "analyses": ["stochastic", "histories", "continuity"],
    "thresholds": {"stochastic_gap_max": 0.05, "continuity_factor_min": 3.5},
}


@pytest.fixture(scope="module")
def summary(tmp_path_factory):
    base = tmp_path_factory.mktemp("multi")
    config, diags = load_config(_write(base, MULTI_CONFIG))
    assert diags == []
    return run_scenario(config, out_dir=base / "out"), base / "out"


class TestMultiAnalysis:
    def test_all_gates_pass(self, summary):
        result, _out = summary
        assert result.all_ok, result.text()

    def test_stochastic_tracks_the_current(self, summary):
        result, _out = summary
        assert result.scalar("stochastic", "rel_gap") < 0.05
        assert result.scalar("stochastic", "mutual_disagreement") < 0.15

    def test_histories_verdict_scalars(self, summary):
        result, _out = summary
        assert result.scalar("histories", "delta_exact") < 0.01
        assert result.scalar("histories", "e_dt_over_hbar") > 10.0

    def test_continuity_converges_second_order(self, summary):
        result, _out = summary
        assert result.scalar("continuity", "convergence_factor") >= 3.5

    def test_every_artifact_exists(self, summary):
        result, out = summary
        expected = {
            "stochastic.csv", "histories.csv", "histories.txt",
            "continuity.csv", "continuity.gnuplot",
        }
        assert expected == set(result.manifest)
        for name in expected:
            assert (out / name).is_file()

    def test_summary_text_reports_overall(self, summary):
        result, out = summary
        text = (out / "summary.txt").read_text()
        assert text == result.text()
        assert "overall: ok" in text

    def test_threads_do_not_change_the_bytes(self, summary, tmp_path):
        _result, out = summary
        config, _ = load_config(_write(tmp_path, MULTI_CONFIG))
        rerun = run_scenario(config, out_dir=tmp_path / "out", threads=3)
        assert rerun.all_ok
        for name in rerun.manifest:
            assert (tmp_path / "out" / name).read_bytes() == (
                out / name
            ).read_bytes(), name


class TestSeedlessGuard:
    def test_numpy_and_stdlib_rng_refuse(self):
        with _seedless_guard():
            with pytest.raises(RuntimeError, match="seedless"):
                np.random.rand(3)
            with pytest.raises(RuntimeError, match="seedless"):
                np.random.default_rng(0)
            with pytest.raises(RuntimeError, match="seedless"):
                random.random()
        # restored on exit
        assert 0.0 <= random.random() < 1.0
        assert np.random.rand(2).shape == (2,)

    def test_pipeline_is_seedless(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        with _seedless_guard():
            summary = run_scenario(config, out_dir=tmp_path / "out")
        assert summary.all_ok


class TestCommandLine:
    def test_import_skips_scipy_stats(self):
        # scipy.stats costs about 0.4 s of every CLI start and nothing on the
        # scenario path needs it; import the package the tests import
        src = str(Path(scenario_cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "import sys, qbflow.scenario_cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_run_exit_0(self, tmp_path, capsys):
        rc = main(["run", _write(tmp_path, BASE), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "overall: ok" in captured.out
        assert "# current:" in captured.out  # wall clock goes to stdout only

    def test_run_exit_1_on_gate_failure(self, tmp_path, capsys):
        tree = _variant(**{"thresholds.mass_window": [1.5, 2.0]})
        rc = main(["run", _write(tmp_path, tree), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "overall: FAILED" in capsys.readouterr().out

    def test_run_exit_2_on_bad_config(self, tmp_path, capsys):
        tree = _variant(**{"time.t2": -1.0})
        rc = main(["run", _write(tmp_path, tree), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "interval inverted" in captured.err
        assert not (tmp_path / "out").exists()

    def test_run_seedless_flag(self, tmp_path):
        rc = main([
            "run", _write(tmp_path, BASE),
            "--out", str(tmp_path / "out"), "--seedless",
        ])
        assert rc == 0

    def test_run_grid_and_threads_flags(self, tmp_path):
        rc = main([
            "run", _write(tmp_path, BASE),
            "--out", str(tmp_path / "out"),
            "--grid", "128", "--threads", "2",
        ])
        assert rc == 0

    @pytest.mark.parametrize("grid", ["8", "2", "sixteen"])
    def test_run_grid_flag_checked(self, tmp_path, capsys, grid):
        # --grid obeys the same lower bound as the config's grid.n
        path = _write(tmp_path, BASE)
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "--out", str(tmp_path / "out"), "--grid", grid])
        assert exc.value.code == 2
        assert "grid points must be an integer >= 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", ["0", "-3", "two"])
    def test_run_threads_flag_checked(self, tmp_path, capsys, threads):
        path = _write(tmp_path, BASE)
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "--out", str(tmp_path / "out"), "--threads", threads])
        assert exc.value.code == 2
        assert "threads must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_validate_exit_codes(self, tmp_path, capsys):
        assert main(["validate", _write(tmp_path, BASE)]) == 0
        assert "config ok" in capsys.readouterr().out
        bad = _write(tmp_path, _variant(**{"physical.mass": None}), "bad.json")
        assert main(["validate", bad]) == 2
        assert "physical.mass required" in capsys.readouterr().err

    def test_list_examples(self, capsys):
        assert main(["list-examples"]) == 0
        out = capsys.readouterr().out
        for name in ("free_gaussian", "backflow", "qbm_positivity"):
            assert name in out


def _body(path) -> list:
    """The non-comment lines of a CSV artifact, split into cells."""
    lines = Path(path).read_text().splitlines()
    return [ln.split(",") for ln in lines if not ln.startswith("#")]


def _is_data(line) -> bool:
    try:
        [float(cell) for cell in line.split(",")]
    except ValueError:
        return False
    return True


class TestCsvFormat:
    def test_current_csv_layout(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        run_scenario(config, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "current.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2] == "t,J,P_cum"
        assert lines[3] == "time,1/time,1"
        # repr floats, '.' decimal separator, one row per sample time
        assert len(lines) == 4 + BASE["time"]["n_t"]
        first = lines[4].split(",")
        assert float(first[0]) == 0.0
        # the gnuplot script skips exactly the four header lines
        script = (tmp_path / "out" / "current.gnuplot").read_text()
        assert 'skip 4' in script
        assert "current.csv" in script

    # the current is continuity-balanced at every gamma; the header line
    # records whether its diffusive term J_D is non-zero
    @pytest.mark.parametrize("bath, corrected", [
        ({}, False),
        ({"physical.gamma": 0.5, "physical.kT": 2.0}, True),
    ], ids=["gamma0", "gamma_positive"])
    def test_current_csv_record(self, tmp_path, bath, corrected):
        tree = _variant(**{"physical.D": 2.0, "time.t1": 0.1, "time.t2": 0.3, "time.n_t": 5,
                           "thresholds.mass_window": None, **bath})
        config, _ = load_config(_write(tmp_path, tree))
        run_scenario(config, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "current.csv").read_text().splitlines()
        assert lines[0] == "# arrival-time record"
        assert lines[1] == f"# corrected={corrected}"
        assert lines[2] == "t,J,P_cum"
        assert lines[3] == "time,1/time,1"
        assert len(lines) == 9

    def test_histories_csv_record(self, tmp_path):
        tree = _variant(**{
            "physical.D": 2.0, "state.gaussian.x0": 60.0, "time.t1": 5.0, "time.t2": 5.25,
            "analyses": ["histories"], "thresholds.mass_window": None,
        })
        config, _ = load_config(_write(tmp_path, tree))
        result = run_scenario(config, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "histories.csv").read_text().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")]
        names = header[0].split(",")
        data = header[2].split(",")
        assert len(data) == len(names)
        row = dict(zip(names, data))
        assert float(row["delta_exact"]) == result.scalar("histories", "delta_exact")
        assert row["decoherent"] == "True"
        assert row["regime"] == "intermediate"

    @pytest.mark.parametrize("name", ["povm", "stochastic"])
    def test_scalar_table_layout(self, runs, summary, name):
        result = runs["qbm_positivity"] if name == "povm" else summary[0]
        names, *rows = _body(Path(result.out_dir) / f"{name}.csv")
        assert names == ["quantity", "value", "units"]
        assert all(len(r) == len(names) for r in rows)
        outcome = next(o for o in result.outcomes if o.name == name)
        assert [r[0] for r in rows] == [k for k, _ in outcome.scalars]
        for quantity, value, _units in rows:
            assert float(value) == result.scalar(name, quantity)

    def test_histories_csv_layout(self, summary):
        result, out = summary
        names, units, *rows = _body(out / "histories.csv")
        assert len(units) == len(names) and len(rows) == 1
        row = dict(zip(names, rows[0], strict=True))
        for key in ("delta_exact", "delta_formula", "e_dt_over_hbar"):
            assert float(row[key]) == result.scalar("histories", key)
        assert (float(row["t1"]), float(row["t2"])) == (MULTI_CONFIG["time"]["t1"],
                                                        MULTI_CONFIG["time"]["t2"])
        assert row["decoherent"] == "True" and row["gates_failed"] == ""

    def test_continuity_csv_layout(self, summary):
        result, out = summary
        lines = (out / "continuity.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[2] == "x,residual"
        assert len(lines) == 3 + 201
        names, *rows = _body(out / "continuity.csv")
        assert all(len(r) == len(names) for r in rows)
        residual = [abs(float(r)) for _, r in rows]
        assert max(residual) == result.scalar("continuity", "residual_fine")
        assert float(lines[1].split("scale=")[1]) == result.scalar("continuity", "scale")

    @pytest.mark.parametrize("name, skip", [("current", 4), ("continuity", 3)])
    def test_gnuplot_skips_the_header_lines(self, tmp_path, name, skip):
        config, _ = load_config(_write(tmp_path, _variant(analyses=[name])))
        run_scenario(config, out_dir=tmp_path / "out")
        script = (tmp_path / "out" / f"{name}.gnuplot").read_text()
        assert f'plot "{name}.csv" skip {skip} ' in script
        lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()
        assert [_is_data(ln) for ln in lines[:skip + 1]] == [False] * skip + [True]

    def test_formatter_cells(self):
        text = scenario_cli._csv(["note"], ["a,b,c"], [(np.float64(1.0) / 3.0, str(True), "x y")])
        assert text == "# note\na,b,c\n0.3333333333333333,True,x y\n"

    def test_no_carriage_returns(self, tmp_path):
        config, _ = load_config(_write(tmp_path, BASE))
        summary = run_scenario(config, out_dir=tmp_path / "out")
        for name in summary.manifest:
            assert b"\r" not in (tmp_path / "out" / name).read_bytes(), name
