"""Batch front-end: scenario configs to CSV tables, plot scripts and summaries.

A scenario is a JSON file naming the physical parameters, exactly one
initial state, grid and time specifications, a list of analyses and the
thresholds they are gated on.  ``run`` executes the requested pipelines
and writes one CSV (plus, for curves, a gnuplot script) per analysis into
the output directory, together with a plain-text summary; ``validate``
reports config diagnostics without running anything; ``list-examples``
shows the bundled scenarios.

Everything in the pipeline is deterministic — two runs of one config
produce byte-identical CSVs — and ``--seedless`` turns any attempt to
draw random numbers into a hard error.  Exit status: 0 on success, 1 when
an analysis fails its gate (or errors), 2 for config problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time as _walltime
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .core_model import Interval, PhysParams, derive_timescales
from . import arrival as ar
from . import gaussian_engine as ge
from . import histories as hi
from .lindblad_dynamics import continuity_residual

__all__ = [
    "ScenarioConfig",
    "AnalysisOutcome",
    "RunSummary",
    "load_config",
    "validate_config",
    "run_scenario",
    "bundled_examples",
    "main",
]

_TOP_KEYS = {
    "description", "physical", "state", "grid", "time",
    "analyses", "thresholds", "out_dir",
}
# One rule per config field: (kind, required, default).  A kind is a sign
# rule on a finite number ("real", "positive", "nonneg"), an inclusive
# integer range (lo, hi; grid.n and time.n_t take arrival's budgets), a finite
# [lo, hi] pair with lo < hi ("pair"), or "bool".  An omitted optional field
# without a default is left out of the checked values.
_FIELDS = {
    "physical": {
        "hbar": ("positive", True, None),
        "mass": ("positive", True, None),
        # the noise: D itself, or the bath pair with D = 2 m gamma kT
        "D": ("nonneg", False, None),
        "gamma": ("nonneg", False, None),
        "kT": ("nonneg", False, None),
    },
    "state.gaussian": {
        "p0": ("real", True, None),
        "x0": ("real", True, None),
        "sigma": ("positive", True, None),
    },
    "state.cat": {
        "separation": ("positive", True, None),
        "p0": ("real", True, None),
        "sigma": ("positive", True, None),
        "x0": ("real", False, 0.0),
    },
    "state.two_momentum": {
        "p1": ("real", True, None),
        "p2": ("real", True, None),
        "x0": ("real", True, None),
        "sigma": ("positive", True, None),
        "ratio": ("positive", False, 1.0),
        "rel_phase": ("real", False, 0.0),
    },
    "grid": {"n": ((ar._GRID_N_MIN, ar._GRID_N_MAX), False, ar._GRID_N_MAX)},
    "time": {
        "t1": ("nonneg", True, None),
        "t2": ("real", True, None),
        "n_t": ((2, ar._N_T_MAX), False, 201),
        "eps": ("positive", False, None),
    },
    # no defaults: an analysis gates only on the keys present, and the
    # histories verdict's own defaults are decoherence_verdict's keywords
    "thresholds": {
        "mass_window": ("pair", False, None),
        "positivity_max_tau_l": ("real", False, None),
        "povm_gap_max": ("real", False, None),
        "stochastic_gap_max": ("real", False, None),
        "delta_max": ("real", False, None),
        "energy_min": ("real", False, None),
        "t1_min": ("real", False, None),
        "continuity_factor_min": ("real", False, None),
        "require_decoherent": ("bool", False, None),
    },
}
_STATE_KINDS = tuple(path.split(".")[1] for path in _FIELDS if path.startswith("state."))


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: parameters, one state, times, analyses, gates."""

    params: PhysParams
    state: object
    grid_n: int
    t1: float
    t2: float
    n_t: int
    eps: float | None
    analyses: tuple
    thresholds: dict     # checked gate values, only the keys the config gives
    out_dir: str | None

    @property
    def window(self) -> Interval:
        return Interval(self.t1, self.t2)


@dataclass(frozen=True)
class AnalysisOutcome:
    """One analysis' verdict: gate status, key scalars, files written."""

    name: str
    status: str          # "ok" | "gate-failed" | "error"
    scalars: tuple       # of (key, float) pairs
    files: tuple         # of file names relative to the output directory
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class RunSummary:
    """Everything a scenario run produced, plus per-stage wall clock."""

    out_dir: str
    outcomes: tuple
    seconds: tuple       # of (analysis, wall-clock) pairs; not in any file

    @property
    def all_ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def manifest(self) -> tuple:
        return tuple(f for o in self.outcomes for f in o.files)

    def scalar(self, analysis: str, key: str) -> float:
        for o in self.outcomes:
            if o.name == analysis:
                for k, v in o.scalars:
                    if k == key:
                        return v
        raise KeyError(f"no scalar {key!r} under analysis {analysis!r}")

    def text(self) -> str:
        """Deterministic human-readable summary (no timings)."""
        lines = ["scenario summary", "================"]
        for o in self.outcomes:
            lines.append(f"[{o.name}] {o.status}")
            for k, v in o.scalars:
                lines.append(f"    {k} = {v!r}")
            if o.note:
                lines.append(f"    {o.note}")
            if o.files:
                lines.append("    files: " + ", ".join(o.files))
        lines.append(f"overall: {'ok' if self.all_ok else 'FAILED'}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing and validation


def _check_value(val, kind, path, diags):
    """``val`` under rule ``kind``, or None with a diagnostic for ``path``."""
    if kind == "pair":
        if isinstance(val, list) and len(val) == 2:
            low, high = [_check_value(v, "real", f"{path}[{i}]", diags) for i, v in enumerate(val)]
            if None in (low, high):
                return None
            if low < high:
                return (low, high)
        problem = "[lo, hi] with lo < hi"
    elif kind == "bool":
        if isinstance(val, bool):
            return val
        problem = "true or false"
    elif isinstance(kind, tuple):
        low, high = kind
        if isinstance(val, int) and not isinstance(val, bool) and low <= val <= high:
            return val
        problem = "an integer " + (f">= {low}" if high == math.inf else f"in [{low}, {high}]")
    elif isinstance(val, bool) or not isinstance(val, (int, float)):
        problem = "a number"
    else:
        try:
            val = float(val)
        except OverflowError:  # an integer literal beyond the double range
            val = math.inf
        if not math.isfinite(val):
            problem = "finite"
        elif kind == "positive" and val <= 0.0:
            problem = "positive"
        elif kind == "nonneg" and val < 0.0:
            problem = "non-negative"
        else:
            return val
    diags.append(f"{path} must be {problem}, got {val!r}")
    return None


def _check_block(block, path, diags) -> dict:
    """The checked fields of one block under its ``_FIELDS`` rules."""
    rules = _FIELDS[path]
    noun = "field" if path.startswith("state.") else "key"
    diags.extend(f"{path}: unknown {noun} {key!r}" for key in block if key not in rules)
    checked = {}
    for key, (kind, required, default) in rules.items():
        value = default
        if key in block:
            value = _check_value(block[key], kind, f"{path}.{key}", diags)
        elif required:
            diags.append(f"{path}.{key} required")
        if value is not None:
            checked[key] = value
    return checked


def _check_tree(tree) -> tuple:
    """``(diagnostics, checked)``: every config problem, each naming its key
    path, and the checked values, by block, that a config is built from."""
    if not isinstance(tree, dict):
        return ["config root must be a JSON object"], {}
    diags = [f"unknown top-level key {key!r}" for key in tree if key not in _TOP_KEYS]
    raw, checked = {}, {}
    for name in ("physical", "grid", "time", "thresholds"):
        required = name in ("physical", "time")
        raw[name] = tree.get(name, None if required else {})
        if not isinstance(raw[name], dict):
            diags.append(f"{name} block " + ("required" if required else "must be an object"))
            raw[name] = {}
        checked[name] = _check_block(raw[name], name, diags)

    phys = checked["physical"]
    has_d = "D" in raw["physical"]
    has_bath = "gamma" in raw["physical"] or "kT" in raw["physical"]
    if not (has_d or has_bath):
        diags.append("physical.D (or physical.gamma with physical.kT) required")
    diags.extend(
        f"physical.{key} required" for key in ("gamma", "kT")
        if has_bath and key not in raw["physical"]
    )
    mass, d_val, gamma, kt = (phys.get(key) for key in ("mass", "D", "gamma", "kT"))
    product = 2.0 * mass * gamma * kt if None not in (mass, gamma, kt) else None
    if product is not None and not math.isfinite(product):
        diags.append(f"physical.gamma, physical.kT: 2*m*gamma*kT = {product!r} must be finite")
    elif has_d and None not in (d_val, product) and (
        abs(d_val - product) > 1e-9 * max(abs(d_val), abs(product), 1e-30)
    ):
        diags.append(f"physical: D={d_val!r} inconsistent with 2*m*gamma*kT={product!r}")
    # the one derivation of D; PhysParams' rule b = gamma / sqrt(2 D) needs noise
    phys["D"] = d_val if has_d else product
    if gamma and phys["D"] == 0.0:
        diags.append(f"physical: gamma={gamma!r} > 0 requires D > 0")

    state = tree.get("state")
    if not isinstance(state, dict):
        diags.append("state block required")
        state = {}
    diags.extend(f"state: unknown variant {key!r}" for key in state if key not in _STATE_KINDS)
    kinds = [k for k in _STATE_KINDS if k in state]
    if len(kinds) != 1:
        diags.append(
            f"state: exactly one of {', '.join(_STATE_KINDS)} required, got {len(kinds)}"
        )
    else:
        kind = kinds[0]
        block = state[kind]
        if not isinstance(block, dict):
            diags.append(f"state.{kind} must be an object")
            block = {}
        checked["state"] = (kind, _check_block(block, f"state.{kind}", diags))

    t1, t2, eps = (checked["time"].get(key) for key in ("t1", "t2", "eps"))
    if None not in (t1, t2) and t2 <= t1:
        diags.append(f"time: interval inverted (t2={t2!r} <= t1={t1!r})")

    analyses = tree.get("analyses")
    if not isinstance(analyses, list) or not analyses:
        diags.append("analyses: non-empty list required")
        analyses = []
    for i, name in enumerate(analyses):
        if name not in _ANALYSES:
            diags.append(
                f"analyses: unknown analysis {name!r} "
                f"(known: {', '.join(_ANALYSES)})"
            )
        elif name in analyses[:i]:
            diags.append(f"analyses: duplicate {name!r}")

    # analysis-specific prerequisites
    if "povm" in analyses and not phys["D"]:
        diags.append("povm analysis needs D > 0 (the effect construction splits accumulated noise)")
    if "stochastic" in analyses:
        if eps is None:
            diags.append("stochastic analysis needs time.eps (the march step)")
        elif None not in (t1, t2):
            for label, t in (("t1", t1), ("t2", t2)):
                try:
                    ar._whole_steps(label, t, eps)
                except (ValueError, OverflowError) as exc:
                    diags.append(f"time.eps must step time.{label} for the stochastic march: {exc}")
                    if "march steps" in str(exc):
                        break  # t2 > t1 is over the step budget too: say it once
    # the grid routes and the effect operator hold at negligible dissipation only
    for name in ("povm", "stochastic", "histories"):
        if name in analyses and gamma:
            diags.append(f"{name} analysis needs gamma = 0 (negligible dissipation)")
    if "continuity" in analyses and None not in (t1, t2) and (t1 + t2) / 2.0 <= 0.0:
        diags.append("continuity analysis needs a positive interval midpoint for the time stencil")

    if "out_dir" in tree and not isinstance(tree["out_dir"], str):
        diags.append("out_dir must be a string")
    if "description" in tree and not isinstance(tree["description"], str):
        diags.append("description must be a string")
    return diags, checked


def _build_state(kind: str, f: dict, hbar: float):
    if kind == "gaussian":
        return ge.make_gaussian_state(p0=f["p0"], q0=f["x0"], sigma=f["sigma"], hbar=hbar)
    if kind == "cat":
        st = ge.make_cat_state(separation=f["separation"], p0=f["p0"], sigma=f["sigma"], hbar=hbar)
        return ge.shift_state(st, dq=f["x0"]) if f["x0"] else st
    return ge.make_two_momentum_state(
        p1=f["p1"], p2=f["p2"], q0=f["x0"], sigma=f["sigma"],
        ratio=f["ratio"], rel_phase=f["rel_phase"], hbar=hbar,
    )


def load_config(path) -> tuple:
    """Parse and validate a scenario file.

    Returns ``(config, diagnostics)``; the config is None whenever the
    diagnostics list is non-empty.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"cannot parse {path}: {exc}"]
    diags, checked = _check_tree(tree)
    if diags:
        return None, diags

    phys, tm = checked["physical"], checked["time"]
    kind, fields = checked["state"]
    # Values that pass the per-field checks can still be out of range
    # together (an overflowing 2*m*gamma*kT, a cat too wide to normalise).
    try:
        params = PhysParams(
            hbar=phys["hbar"], mass=phys["mass"], D=phys["D"], gamma=phys.get("gamma", 0.0)
        )
        state = _build_state(kind, fields, phys["hbar"])
    except (ValueError, ArithmeticError) as exc:
        return None, [f"cannot build the scenario from {path}: {exc}"]
    config = ScenarioConfig(
        params=params,
        state=state,
        grid_n=checked["grid"]["n"],
        t1=tm["t1"],
        t2=tm["t2"],
        n_t=tm["n_t"],
        eps=tm.get("eps"),
        analyses=tuple(tree["analyses"]),
        thresholds=checked["thresholds"],
        out_dir=tree.get("out_dir"),
    )
    return config, []


def validate_config(path) -> list:
    """Diagnostics for a scenario file; empty iff the config is valid."""
    _, diags = load_config(path)
    return diags


# ---------------------------------------------------------------------------
# analyses — each returns (status, scalars, artifacts, note); artifacts are
# (file name, text) pairs that the caller writes serially


def _csv(comments, column_lines, rows) -> str:
    """The one artifact CSV layout: ``# `` comment lines, the column lines
    (names, then units if any), one line per row; text cells as they are,
    numbers as ``repr(float(x))``, ``\\n`` endings."""
    lines = [f"# {c}" for c in comments] + list(column_lines)
    lines.extend(
        ",".join(c if isinstance(c, str) else repr(float(c)) for c in row) for row in rows
    )
    return "\n".join(lines) + "\n"


def _gnuplot_script(csv_name, skip, xlabel, ylabel, title):
    return (
        f"# gnuplot script; run:  gnuplot -p {csv_name.replace('.csv', '.gnuplot')}\n"
        'set datafile separator ","\n'
        f'set xlabel "{xlabel}"\nset ylabel "{ylabel}"\nset grid\n'
        f'plot "{csv_name}" skip {skip} using 1:2 with lines title "{title}"\n'
    )


def _run_current(cfg: ScenarioConfig):
    times = np.linspace(cfg.t1, cfg.t2, cfg.n_t)
    res = ar.backflow_scan(cfg.state, cfg.params, times)
    t_min, j_min = res.min_current()
    total = res.total()
    scalars = (
        ("p_interval", total),
        ("min_J", j_min),
        ("min_J_time", t_min),
    )
    status = "ok"
    note = ""
    if "mass_window" in cfg.thresholds:
        lo, hi = cfg.thresholds["mass_window"]
        if not lo <= total <= hi:
            status = "gate-failed"
            note = f"p_interval {total!r} outside mass window [{lo!r}, {hi!r}]"
    artifacts = [
        ("current.csv", _csv(
            ["arrival-time record", f"corrected={cfg.params.gamma > 0.0}"],
            ["t,J,P_cum", "time,1/time,1"],
            zip(res.times, res.current, res.cumulative),
        )),
        ("current.gnuplot", _gnuplot_script("current.csv", 4, "t", "J", "arrival current")),
    ]
    return status, scalars, artifacts, note


def _run_povm(cfg: ScenarioConfig):
    params = cfg.params
    scales = derive_timescales(params, 0.0)
    tau_l, t_pos = scales.tau_l, scales.t_positive
    t_thr = ar.povm_threshold_time(params)
    effect = ar.build_povm_E(cfg.window, params)
    expectation = effect.expectation(cfg.state)
    integral = ar.arrival_probability(cfg.state, cfg.window, params)
    gap = abs(expectation - integral) / max(abs(integral), 1e-300)
    scalars = (
        ("positivity_time", t_pos),
        ("tau_l", tau_l),
        ("threshold_time", t_thr),
        ("povm_expectation", expectation),
        ("current_integral", integral),
        ("rel_gap", gap),
    )
    status = "ok"
    notes = []
    pos_max = cfg.thresholds.get("positivity_max_tau_l")
    if pos_max is not None and t_pos > pos_max * tau_l * (1.0 + 1e-9):
        status = "gate-failed"
        notes.append(f"positivity time {t_pos!r} above {pos_max!r} tau_l")
    gap_max = cfg.thresholds.get("povm_gap_max")
    if gap_max is not None and gap > gap_max:
        status = "gate-failed"
        notes.append(f"effect/current gap {gap!r} above {gap_max!r}")
    rows = [(k, v, "time" if k.endswith("time") or k == "tau_l" else "1")
            for k, v in scalars]
    artifacts = [("povm.csv", _csv(["effect-operator analysis"], ["quantity,value,units"], rows))]
    return status, scalars, artifacts, "; ".join(notes)


def _run_stochastic(cfg: ScenarioConfig):
    march = ar.arrival_probability_stochastic(
        cfg.state, cfg.window, cfg.params, cfg.eps, n=cfg.grid_n
    )
    integral = ar.arrival_probability(cfg.state, cfg.window, cfg.params)
    gap = abs(march.norm_loss - integral) / max(abs(integral), 1e-300)
    scalars = (
        ("norm_loss", march.norm_loss),
        ("boundary_flux", march.boundary_flux),
        ("mutual_disagreement", march.mutual_disagreement()),
        ("current_integral", integral),
        ("rel_gap", gap),
        ("final_norm", march.final_norm),
    )
    status = "ok"
    note = ""
    gap_max = cfg.thresholds.get("stochastic_gap_max")
    if gap_max is not None and gap > gap_max:
        status = "gate-failed"
        note = f"restricted-march/current gap {gap!r} above {gap_max!r}"
    rows = [(k, v, "1") for k, v in scalars]
    artifacts = [
        ("stochastic.csv", _csv(["restricted-propagation analysis"], ["quantity,value,units"], rows))
    ]
    return status, scalars, artifacts, note


def _run_histories(cfg: ScenarioConfig):
    gates = {k: v for k, v in cfg.thresholds.items() if k in ("delta_max", "energy_min", "t1_min")}
    rep = hi.decoherence_verdict(cfg.state, cfg.window, cfg.params, **gates)
    scalars = (
        ("delta_exact", rep.delta_exact),
        ("delta_formula", rep.delta_formula),
        ("e_dt_over_hbar", rep.e_dt_over_hbar),
    )
    status = "ok"
    note = f"decoherent={rep.decoherent} regime={rep.regime}"
    if cfg.thresholds.get("require_decoherent") and not rep.decoherent:
        status = "gate-failed"
        note += "; decoherence required but gates failed"
    artifacts = [
        ("histories.csv", _csv(
            ["arrival-window decoherence verdict",
             "thresholds: " + " ".join(f"{name}={value!r}" for name, value in rep.thresholds)],
            ["t1,t2,regime,delta_exact,delta_formula,"
             "e_dt_over_hbar,t1_over_tau_l,gaussian,decoherent,gates_failed",
             "time,time,,1,1,1,1,,,"],
            [(rep.t1, rep.t2, rep.regime, rep.delta_exact, rep.delta_formula,
              rep.e_dt_over_hbar, rep.t1_over_tau_l, str(rep.gaussian), str(rep.decoherent),
              "; ".join(rep.gates_failed))],
        )),
        ("histories.txt", rep.summary_text()),
    ]
    return status, scalars, artifacts, note


def _run_continuity(cfg: ScenarioConfig):
    t_mid = 0.5 * (cfg.t1 + cfg.t2)
    snapshot = ge.propagate_mixture(cfg.state, t_mid, cfg.params)
    mean, cov = ge.moments(snapshot)
    sq = math.sqrt(cov.qq)
    x = np.linspace(mean[1] - 4.0 * sq, mean[1] + 4.0 * sq, 201)
    dx = sq / 50.0
    speed = (float(abs(mean[0])) + 3.0 * math.sqrt(cov.pp)) / cfg.params.mass
    dt = min(dx / speed, 0.45 * t_mid)
    coarse = continuity_residual(cfg.state, t_mid, cfg.params, x, dx, dt)
    fine = continuity_residual(cfg.state, t_mid, cfg.params, x, dx / 2.0, dt / 2.0)
    factor = coarse.max_abs / max(fine.max_abs, 1e-300)
    scalars = (
        ("residual_coarse", coarse.max_abs),
        ("residual_fine", fine.max_abs),
        ("convergence_factor", factor),
        ("scale", fine.scale),
    )
    status = "ok"
    note = ""
    factor_min = cfg.thresholds.get("continuity_factor_min")
    if factor_min is not None and factor < factor_min:
        status = "gate-failed"
        note = f"stencil refinement gained only {factor!r}x (needs {factor_min!r}x)"
    artifacts = [
        ("continuity.csv", _csv(
            [f"continuity residual: dx={fine.dx!r} dt={fine.dt!r}",
             f"max_abs={fine.max_abs!r} scale={fine.scale!r}"],
            ["x,residual"],
            zip(fine.x, fine.residual),
        )),
        ("continuity.gnuplot",
         _gnuplot_script("continuity.csv", 3, "x", "residual", "continuity residual")),
    ]
    return status, scalars, artifacts, note


_RUNNERS = {
    "current": _run_current,
    "povm": _run_povm,
    "stochastic": _run_stochastic,
    "histories": _run_histories,
    "continuity": _run_continuity,
}
_ANALYSES = tuple(_RUNNERS)


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    threads: int = 1,
) -> RunSummary:
    """Run every analysis in the config and write its artifacts.

    Analyses are independent and run on a thread pool when ``threads`` > 1;
    each returns its artifacts as texts, and all file writing happens
    serially afterwards, in config order and then ``summary.txt``, so
    concurrency never touches the output bytes.  Each analysis failure is
    contained: the run continues and the failure is reported in the
    summary (and through the exit status of the command-line front end).
    An analysis that returns a NaN or infinite scalar is an ``error``, with
    the offending scalars named in its note.
    """
    out = Path(out_dir if out_dir is not None else (config.out_dir or "scenario_out"))
    out.mkdir(parents=True, exist_ok=True)
    names = list(config.analyses)

    def _task(name):
        start = _walltime.perf_counter()
        try:
            status, scalars, artifacts, note = _RUNNERS[name](config)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            return name, ("error", (), [], f"{type(exc).__name__}: {exc}"), (
                _walltime.perf_counter() - start
            )
        bad = [f"{k} = {v!r}" for k, v in scalars if not math.isfinite(v)]
        if bad:
            status = "error"
            note = f"non-finite {', '.join(bad)}" + (f"; {note}" if note else "")
        return name, (status, scalars, artifacts, note), _walltime.perf_counter() - start

    if threads > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(names))) as pool:
            results = list(pool.map(_task, names))
    else:
        results = [_task(name) for name in names]

    outcomes = tuple(
        AnalysisOutcome(name=name, status=status, scalars=tuple(scalars),
                        files=tuple(f for f, _ in artifacts), note=note)
        for name, (status, scalars, artifacts, note), _ in results
    )
    summary = RunSummary(
        out_dir=str(out), outcomes=outcomes,
        seconds=tuple((name, wall) for name, _, wall in results),
    )
    texts = [a for _, (_, _, artifacts, _), _ in results for a in artifacts]
    for filename, text in texts + [("summary.txt", summary.text())]:
        (out / filename).write_text(text, newline="\n")
    return summary


# ---------------------------------------------------------------------------
# bundled examples and the seedless guard


def bundled_examples() -> list:
    """(name, description, traversable) for every shipped example config."""
    root = resources.files(__package__) / "examples"
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            tree = json.loads(entry.read_text())
            out.append((entry.name[:-5], tree.get("description", ""), entry))
    return out


_RNG_ATTRS = (
    "seed", "random", "rand", "randn", "standard_normal", "normal",
    "uniform", "randint", "choice", "shuffle", "permutation", "default_rng",
)


@contextmanager
def _seedless_guard():
    """Make any attempt to draw random numbers a hard error."""
    import random as stdlib_random

    def _refuse(*_a, **_k):
        raise RuntimeError(
            "seedless run: the pipeline requested random numbers"
        )

    saved_np = {name: getattr(np.random, name) for name in _RNG_ATTRS}
    saved_std = {
        name: getattr(stdlib_random, name)
        for name in ("random", "uniform", "randint", "choice", "shuffle", "seed")
    }
    try:
        for name in saved_np:
            setattr(np.random, name, _refuse)
        for name in saved_std:
            setattr(stdlib_random, name, _refuse)
        yield
    finally:
        for name, fn in saved_np.items():
            setattr(np.random, name, fn)
        for name, fn in saved_std.items():
            setattr(stdlib_random, name, fn)


# ---------------------------------------------------------------------------
# command line


def _int_arg(what: str, low: int, high=math.inf):
    """argparse type: an integer in [``low``, ``high``], else exit 2 with
    ``_check_value``'s diagnostic naming the rule."""

    def parse(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            val = text
        diags = []
        n = _check_value(val, (low, high), what, diags)
        if diags:
            raise argparse.ArgumentTypeError(diags[0])
        return n

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbflow",
        description="Arrival-time scenario runner: configs to CSVs and summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("config", help="path to a scenario JSON file")
    run_p.add_argument("--out", metavar="DIR", help="output directory (overrides the config)")
    # --grid obeys the same rule as the config's grid.n
    run_p.add_argument("--grid", metavar="N",
                       type=_int_arg("grid points", ar._GRID_N_MIN, ar._GRID_N_MAX),
                       help="grid points (overrides the config)")
    run_p.add_argument("--threads", metavar="K", type=_int_arg("threads", 1), default=1,
                       help="run independent analyses on K threads")
    run_p.add_argument("--seedless", action="store_true",
                       help="hard-error if anything requests random numbers")

    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="path to a scenario JSON file")

    sub.add_parser("list-examples", help="list the bundled example scenarios")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-examples":
        for name, description, _ in bundled_examples():
            print(f"{name:20s} {description}")
        return 0

    if args.command == "validate":
        diags = validate_config(args.config)
        if diags:
            for diag in diags:
                print(diag, file=sys.stderr)
            return 2
        print("config ok")
        return 0

    config, diags = load_config(args.config)
    if config is None:
        for diag in diags:
            print(diag, file=sys.stderr)
        return 2
    if args.grid is not None:
        config = replace(config, grid_n=args.grid)
    try:
        with _seedless_guard() if args.seedless else nullcontext():
            summary = run_scenario(config, out_dir=args.out, threads=args.threads)
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(summary.text(), end="")
    for name, wall in summary.seconds:
        print(f"# {name}: {wall:.2f} s")
    print(f"# outputs in {summary.out_dir}")
    return 0 if summary.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
