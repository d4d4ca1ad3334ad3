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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core_model import Interval, PhysParams
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

_ANALYSES = ("current", "povm", "stochastic", "histories", "continuity")
_STATE_KINDS = ("gaussian", "cat", "two_momentum")
_TOP_KEYS = {
    "description", "physical", "state", "grid", "time",
    "analyses", "thresholds", "out_dir",
}
_THRESHOLD_KEYS = {
    "mass_window", "povm_gap_max", "stochastic_gap_max",
    "positivity_max_tau_l", "delta_max", "energy_min", "t1_min",
    "continuity_factor_min", "require_decoherent",
}
_POSITIVE_STATE_FIELDS = {"sigma", "separation", "ratio"}
_GRID_N_MIN = 16
# each current sample propagates the mixture (40-100 us), so this caps the
# sweep at ~10 s; grid.n needs no cap, every analysis clamps or refuses it
_N_T_MAX = 100_000
# at ~35 ms a step on the stochastic analysis's 512² grid: about six minutes
_MARCH_STEPS_MAX = 10_000
_STATE_FIELDS = {
    "gaussian": ({"p0", "x0", "sigma"}, set()),
    "cat": ({"separation", "p0", "sigma"}, {"x0"}),
    "two_momentum": ({"p1", "p2", "x0", "sigma"}, {"ratio", "rel_phase"}),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: parameters, one state, times, analyses, gates."""

    params: PhysParams
    state: object
    state_kind: str
    grid_n: int
    t1: float
    t2: float
    n_t: int
    eps: float | None
    analyses: tuple
    thresholds: dict
    out_dir: str | None
    description: str
    raw: dict

    def to_json(self) -> str:
        """Serialise the config back to its on-disk form (lossless)."""
        return json.dumps(self.raw, indent=2) + "\n"

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


def _num(tree, path, diags, required=True, positive=False, nonneg=False):
    node = tree
    for part in path.split(".")[:-1]:
        node = node.get(part, {}) if isinstance(node, dict) else {}
    leaf = path.split(".")[-1]
    if not isinstance(node, dict) or leaf not in node:
        if required:
            diags.append(f"{path} required")
        return None
    val = node[leaf]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        diags.append(f"{path} must be a number, got {val!r}")
        return None
    try:
        val = float(val)
    except OverflowError:  # an integer literal beyond the double range
        val = math.inf
    if not math.isfinite(val):
        diags.append(f"{path} must be finite, got {val!r}")
        return None
    if positive and val <= 0.0:
        diags.append(f"{path} must be positive, got {val!r}")
        return None
    if nonneg and val < 0.0:
        diags.append(f"{path} must be non-negative, got {val!r}")
        return None
    return val


def _validate_tree(tree) -> list:
    """All config diagnostics, each carrying the offending key path."""
    if not isinstance(tree, dict):
        return ["config root must be a JSON object"]
    diags = []
    for key in tree:
        if key not in _TOP_KEYS:
            diags.append(f"unknown top-level key {key!r}")

    phys = tree.get("physical")
    if not isinstance(phys, dict):
        diags.append("physical block required")
        phys = {}
    _num({"physical": phys}, "physical.hbar", diags, positive=True)
    mass = _num({"physical": phys}, "physical.mass", diags, positive=True)
    has_d = "D" in phys
    has_bath = "gamma" in phys or "kT" in phys
    d_val = _num({"physical": phys}, "physical.D", diags, required=False, nonneg=True)
    if has_bath:
        gamma = _num({"physical": phys}, "physical.gamma", diags, nonneg=True)
        kt = _num({"physical": phys}, "physical.kT", diags, nonneg=True)
        if (
            has_d
            and None not in (d_val, gamma, kt, mass)
        ):
            product = 2.0 * mass * gamma * kt
            if abs(d_val - product) > 1e-9 * max(abs(d_val), abs(product), 1e-30):
                diags.append(
                    f"physical: D={d_val!r} inconsistent with "
                    f"2*m*gamma*kT={product!r}"
                )
        # PhysParams' rule: b = gamma / sqrt(2 D) needs noise to exist
        d_bath = d_val if has_d else (
            2.0 * mass * gamma * kt if None not in (gamma, kt, mass) else None
        )
        if gamma and d_bath == 0.0:
            diags.append(f"physical: gamma={gamma!r} > 0 requires D > 0")
    elif not has_d:
        diags.append("physical.D (or physical.gamma with physical.kT) required")

    state = tree.get("state")
    if not isinstance(state, dict):
        diags.append("state block required")
        state = {}
    kinds = [k for k in _STATE_KINDS if k in state]
    for key in state:
        if key not in _STATE_KINDS:
            diags.append(f"state: unknown variant {key!r}")
    if len(kinds) != 1:
        diags.append(
            "state: exactly one of gaussian, cat, two_momentum required, "
            f"got {len(kinds)}"
        )
    else:
        kind = kinds[0]
        block = state[kind] if isinstance(state[kind], dict) else {}
        if not isinstance(state[kind], dict):
            diags.append(f"state.{kind} must be an object")
        required, optional = _STATE_FIELDS[kind]
        for fieldname in sorted(required) + sorted(optional):
            _num(
                {kind: block}, f"{kind}.{fieldname}", diags,
                required=fieldname in required,
                positive=fieldname in _POSITIVE_STATE_FIELDS,
            )
        for fieldname in block:
            if fieldname not in required | optional:
                diags.append(f"state.{kind}: unknown field {fieldname!r}")

    grid = tree.get("grid", {})
    if not isinstance(grid, dict):
        diags.append("grid block must be an object")
        grid = {}
    n = grid.get("n", 1024)
    if isinstance(n, bool) or not isinstance(n, int) or n < _GRID_N_MIN:
        diags.append(f"grid.n must be an integer >= {_GRID_N_MIN}, got {n!r}")

    tm = tree.get("time")
    if not isinstance(tm, dict):
        diags.append("time block required")
        tm = {}
    t1 = _num({"time": tm}, "time.t1", diags, nonneg=True)
    t2 = _num({"time": tm}, "time.t2", diags)
    if None not in (t1, t2) and t2 <= t1:
        diags.append(f"time: interval inverted (t2={t2!r} <= t1={t1!r})")
    n_t = tm.get("n_t", 201)
    if isinstance(n_t, bool) or not isinstance(n_t, int) or not 2 <= n_t <= _N_T_MAX:
        diags.append(f"time.n_t must be an integer in [2, {_N_T_MAX}], got {n_t!r}")
    eps = _num({"time": tm}, "time.eps", diags, required=False, positive=True)

    analyses = tree.get("analyses")
    if not isinstance(analyses, list) or not analyses:
        diags.append("analyses: non-empty list required")
        analyses = []
    for name in analyses:
        if name not in _ANALYSES:
            diags.append(
                f"analyses: unknown analysis {name!r} "
                f"(known: {', '.join(_ANALYSES)})"
            )

    thr = tree.get("thresholds", {})
    if not isinstance(thr, dict):
        diags.append("thresholds block must be an object")
        thr = {}
    for key in thr:
        if key not in _THRESHOLD_KEYS:
            diags.append(f"thresholds: unknown key {key!r}")
    for key in sorted(_THRESHOLD_KEYS - {"mass_window", "require_decoherent"}):
        _num({"thresholds": thr}, f"thresholds.{key}", diags, required=False)
    win = thr.get("mass_window")
    if win is not None and (
        not isinstance(win, list)
        or len(win) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in win)
        or not win[0] < win[1]
    ):
        diags.append("thresholds.mass_window must be [lo, hi] with lo < hi")

    # analysis-specific prerequisites
    d_eff = d_val
    if d_eff is None and has_bath:
        gamma = phys.get("gamma")
        kt = phys.get("kT")
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (gamma, kt)) and mass:
            d_eff = 2.0 * mass * gamma * kt
    if "povm" in analyses and (d_eff is None or d_eff <= 0.0):
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
            if t2 / eps > _MARCH_STEPS_MAX:
                diags.append(f"time.t2/time.eps must be at most {_MARCH_STEPS_MAX} "
                             f"march steps, got {t2 / eps!r}")
    if "histories" in analyses:
        gamma = phys.get("gamma", 0.0)
        if isinstance(gamma, (int, float)) and not isinstance(gamma, bool) and gamma != 0.0:
            diags.append("histories analysis needs gamma = 0 (negligible dissipation)")
    if "continuity" in analyses and None not in (t1, t2) and (t1 + t2) / 2.0 <= 0.0:
        diags.append("continuity analysis needs a positive interval midpoint for the time stencil")

    if "out_dir" in tree and not isinstance(tree["out_dir"], str):
        diags.append("out_dir must be a string")
    if "description" in tree and not isinstance(tree["description"], str):
        diags.append("description must be a string")
    return diags


def _build_state(kind: str, block: dict, hbar: float):
    if kind == "gaussian":
        return ge.make_gaussian_state(
            p0=float(block["p0"]), q0=float(block["x0"]),
            sigma=float(block["sigma"]), hbar=hbar,
        )
    if kind == "cat":
        st = ge.make_cat_state(
            separation=float(block["separation"]), p0=float(block["p0"]),
            sigma=float(block["sigma"]), hbar=hbar,
        )
        if block.get("x0"):
            st = ge.shift_state(st, dq=float(block["x0"]))
        return st
    return ge.make_two_momentum_state(
        p1=float(block["p1"]), p2=float(block["p2"]),
        q0=float(block["x0"]), sigma=float(block["sigma"]),
        ratio=float(block.get("ratio", 1.0)),
        rel_phase=float(block.get("rel_phase", 0.0)),
        hbar=hbar,
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
    diags = _validate_tree(tree)
    if diags:
        return None, diags

    phys = tree["physical"]
    hbar, mass = float(phys["hbar"]), float(phys["mass"])
    kind = next(k for k in _STATE_KINDS if k in tree["state"])
    # Values that pass the per-field checks can still be out of range
    # together (an overflowing 2*m*gamma*kT, a cat too wide to normalise).
    try:
        if "D" in phys:
            params = PhysParams(
                hbar=hbar, mass=mass, D=float(phys["D"]),
                gamma=float(phys.get("gamma", 0.0)),
            )
        else:
            params = PhysParams.from_temperature(
                gamma=float(phys["gamma"]), kT=float(phys["kT"]),
                hbar=hbar, mass=mass,
            )
        state = _build_state(kind, tree["state"][kind], hbar)
    except (ValueError, ArithmeticError) as exc:
        return None, [f"cannot build the scenario from {path}: {exc}"]
    tm = tree["time"]
    config = ScenarioConfig(
        params=params,
        state=state,
        state_kind=kind,
        grid_n=int(tree.get("grid", {}).get("n", 1024)),
        t1=float(tm["t1"]),
        t2=float(tm["t2"]),
        n_t=int(tm.get("n_t", 201)),
        eps=float(tm["eps"]) if "eps" in tm else None,
        analyses=tuple(tree["analyses"]),
        thresholds=dict(tree.get("thresholds", {})),
        out_dir=tree.get("out_dir"),
        description=tree.get("description", ""),
        raw=tree,
    )
    return config, []


def validate_config(path) -> list:
    """Diagnostics for a scenario file; empty iff the config is valid."""
    _, diags = load_config(path)
    return diags


# ---------------------------------------------------------------------------
# analyses — each returns (status, scalars, writers, note); writers are
# (filename, callable) pairs executed serially by the caller


def _gnuplot_script(csv_name, skip, xlabel, ylabel, title):
    return (
        f"# gnuplot script; run:  gnuplot -p {csv_name.replace('.csv', '.gnuplot')}\n"
        'set datafile separator ","\n'
        f'set xlabel "{xlabel}"\nset ylabel "{ylabel}"\nset grid\n'
        f'plot "{csv_name}" skip {skip} using 1:2 with lines title "{title}"\n'
    )


def _write_text(text):
    def writer(path):
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return writer


def _table_writer(title, rows):
    """CSV writer for (quantity, value, units) rows with repr floats."""
    def writer(path):
        with open(path, "w", newline="\n") as fh:
            fh.write(f"# {title}\n")
            fh.write("quantity,value,units\n")
            for name, value, units in rows:
                fh.write(f"{name},{float(value)!r},{units}\n")
    return writer


def _gate(thresholds, key):
    value = thresholds.get(key)
    return None if value is None else float(value)


def _run_current(cfg: ScenarioConfig, grid_n: int):
    times = np.linspace(cfg.t1, cfg.t2, cfg.n_t)
    res = ar.backflow_scan(
        cfg.state, cfg.params, times, corrected=cfg.params.gamma > 0.0
    )
    t_min, j_min = res.min_current()
    total = res.total()
    scalars = (
        ("p_interval", total),
        ("min_J", j_min),
        ("min_J_time", t_min),
    )
    status = "ok"
    note = ""
    window = cfg.thresholds.get("mass_window")
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        if not lo <= total <= hi:
            status = "gate-failed"
            note = f"p_interval {total!r} outside mass window [{lo!r}, {hi!r}]"
    writers = [
        ("current.csv", res.to_csv),
        ("current.gnuplot", _write_text(
            _gnuplot_script("current.csv", 4, "t", "J", "arrival current")
        )),
    ]
    return status, scalars, writers, note


def _positivity_time(params: PhysParams) -> float:
    """First time the accumulated noise admits a Wigner decomposition."""
    tau_l = math.sqrt(2.0 * params.mass * params.hbar / params.D)
    lo, hi = 1e-9 * tau_l, 10.0 * tau_l
    if not ge.is_wigner_admissible(ge.qbm_covariance(hi, params), params.hbar):
        raise RuntimeError("no admissibility flip below 10 localisation times")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ge.is_wigner_admissible(ge.qbm_covariance(mid, params), params.hbar):
            hi = mid
        else:
            lo = mid
    return hi


def _run_povm(cfg: ScenarioConfig, grid_n: int):
    params = cfg.params
    tau_l = math.sqrt(2.0 * params.mass * params.hbar / params.D)
    t_pos = _positivity_time(params)
    t_thr = ar.povm_threshold_time(params)
    effect = ar.build_povm_E(cfg.window, params)
    expectation = effect.expectation(cfg.state, n=max(256, min(grid_n, 1024)))
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
    pos_max = _gate(cfg.thresholds, "positivity_max_tau_l")
    if pos_max is not None and t_pos > pos_max * tau_l * (1.0 + 1e-9):
        status = "gate-failed"
        notes.append(f"positivity time {t_pos!r} above {pos_max!r} tau_l")
    gap_max = _gate(cfg.thresholds, "povm_gap_max")
    if gap_max is not None and gap > gap_max:
        status = "gate-failed"
        notes.append(f"effect/current gap {gap!r} above {gap_max!r}")
    rows = [(k, v, "time" if k.endswith("time") or k == "tau_l" else "1")
            for k, v in scalars]
    writers = [("povm.csv", _table_writer("effect-operator analysis", rows))]
    return status, scalars, writers, "; ".join(notes)


def _run_stochastic(cfg: ScenarioConfig, grid_n: int):
    march = ar.arrival_probability_stochastic(
        cfg.state, cfg.window, cfg.params, cfg.eps, n=min(grid_n, 512)
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
    gap_max = _gate(cfg.thresholds, "stochastic_gap_max")
    if gap_max is not None and gap > gap_max:
        status = "gate-failed"
        note = f"restricted-march/current gap {gap!r} above {gap_max!r}"
    rows = [(k, v, "1") for k, v in scalars]
    writers = [("stochastic.csv", _table_writer("restricted-propagation analysis", rows))]
    return status, scalars, writers, note


def _run_histories(cfg: ScenarioConfig, grid_n: int):
    report = hi.decoherence_verdict(
        cfg.state, cfg.window, cfg.params,
        n=grid_n,
        delta_max=cfg.thresholds.get("delta_max", 0.01),
        energy_min=cfg.thresholds.get("energy_min", 10.0),
        t1_min=cfg.thresholds.get("t1_min", 5.0),
    )
    scalars = (
        ("delta_exact", report.delta_exact),
        ("delta_formula", report.delta_formula),
        ("e_dt_over_hbar", report.e_dt_over_hbar),
    )
    status = "ok"
    note = f"decoherent={report.decoherent} regime={report.regime}"
    if cfg.thresholds.get("require_decoherent") and not report.decoherent:
        status = "gate-failed"
        note += "; decoherence required but gates failed"
    writers = [
        ("histories.csv", report.to_csv),
        ("histories.txt", _write_text(report.summary_text())),
    ]
    return status, scalars, writers, note


def _run_continuity(cfg: ScenarioConfig, grid_n: int):
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
    factor_min = _gate(cfg.thresholds, "continuity_factor_min")
    if factor_min is not None and factor < factor_min:
        status = "gate-failed"
        note = f"stencil refinement gained only {factor!r}x (needs {factor_min!r}x)"
    writers = [
        ("continuity.csv", fine.to_csv),
        ("continuity.gnuplot", _write_text(
            _gnuplot_script("continuity.csv", 3, "x", "residual", "continuity residual")
        )),
    ]
    return status, scalars, writers, note


_RUNNERS = {
    "current": _run_current,
    "povm": _run_povm,
    "stochastic": _run_stochastic,
    "histories": _run_histories,
    "continuity": _run_continuity,
}


def run_scenario(
    config: ScenarioConfig,
    out_dir=None,
    grid_n: int | None = None,
    threads: int = 1,
) -> RunSummary:
    """Run every analysis in the config and write its artifacts.

    Analyses are independent and run on a thread pool when ``threads`` > 1;
    all file writing happens serially afterwards, in config order, so
    concurrency never touches the output bytes.  Each analysis failure is
    contained: the run continues and the failure is reported in the
    summary (and through the exit status of the command-line front end).
    An analysis that returns a NaN or infinite scalar is an ``error``, with
    the offending scalars named in its note.
    """
    out = Path(out_dir if out_dir is not None else (config.out_dir or "scenario_out"))
    out.mkdir(parents=True, exist_ok=True)
    names = list(config.analyses)
    n = int(grid_n) if grid_n is not None else config.grid_n

    def _task(name):
        start = _walltime.perf_counter()
        try:
            status, scalars, writers, note = _RUNNERS[name](config, n)
        except (ValueError, RuntimeError, FloatingPointError) as exc:
            return name, ("error", (), [], f"{type(exc).__name__}: {exc}"), (
                _walltime.perf_counter() - start
            )
        bad = [f"{k} = {v!r}" for k, v in scalars if not math.isfinite(v)]
        if bad:
            status = "error"
            note = f"non-finite {', '.join(bad)}" + (f"; {note}" if note else "")
        return name, (status, scalars, writers, note), _walltime.perf_counter() - start

    if threads > 1 and len(names) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(names))) as pool:
            results = list(pool.map(_task, names))
    else:
        results = [_task(name) for name in names]

    outcomes = []
    seconds = []
    for name, (status, scalars, writers, note), wall in results:
        files = []
        for filename, writer in writers:
            writer(out / filename)
            files.append(filename)
        outcomes.append(AnalysisOutcome(
            name=name, status=status, scalars=tuple(scalars),
            files=tuple(files), note=note,
        ))
        seconds.append((name, wall))

    summary = RunSummary(
        out_dir=str(out), outcomes=tuple(outcomes), seconds=tuple(seconds)
    )
    (out / "summary.txt").write_text(summary.text())
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


def _int_arg(what: str, minimum: int):
    """argparse type: an integer >= ``minimum``, else exit 2 naming the rule."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or n < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= {minimum}, got {text!r}"
            )
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
    run_p.add_argument("--grid", metavar="N", type=_int_arg("grid points", _GRID_N_MIN),
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
    try:
        with _seedless_guard() if args.seedless else nullcontext():
            summary = run_scenario(
                config, out_dir=args.out, grid_n=args.grid, threads=args.threads
            )
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
