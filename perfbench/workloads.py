"""Seeded inputs, operations and output checks of the three workloads.

``generate`` turns (workload, seed) into plain JSON-able inputs using only
the standard library, so the same seed gives byte-identical configs.
``prepare`` hands those inputs to the program the way a user would (config
files through ``load_config``, or library calls for the crossing-class
matrix) and returns the timed operations.  Every operation checks its own
outputs; a failed check is reported, never raised past the operation.

Why these three (see README.md for the full rationale):

* ``chain``     drives the density split-step inside the crossing-class
  matrix (grid_engine), the layer that dominates the test suite;
* ``scenarios`` drives the closed-form scenario path (histories windows,
  arrival currents, gaussian_engine) with no n^2 grid at all;
* ``march``     drives grid_engine differently: many small Wigner shears
  of the restricted march instead of a few huge FFTs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

WORKLOADS = ("chain", "scenarios", "march")

# Reference scalars in reference.json were recorded for this seed.
DEFAULT_SEED = 0

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Criterion-09 inputs (tests/test_acceptance.py), shrunk to two classes.
BATTERY_INTERVALS = ((5.0, 5.25), (5.25, 5.5))
CONTROL_STATE = dict(p1=-2.0, p2=-6.0, q0=2.0, sigma=1.0, ratio=0.577, rel_phase=1.5 * math.pi)
CONTROL_SLICES = ((0.470, 0.478), (0.478, 0.486), (0.486, 0.494))

# scenarios: generated configs, a third per regime.  Kept small enough that
# about six passes fit in a 30 s run, so run_s is a median over passes.
N_GENERATED = 48
REGIMES = ("free", "intermediate", "strong")
STATE_KINDS = ("gaussian", "cat", "two_momentum")
_POVM_THRESHOLD = 1.5 + math.sqrt(3.0)   # D t^2 / m >= this * hbar

# march: (D, eps, n), a half fraction of {1, 2} x {0.0125, 0.025} x {256, 512}
# that still takes every level of each factor.  The window [0.5, 1.0] is
# fixed, so every seed marches the same 240 steps and only the state is
# jittered.
MARCH_GRID = ((1.0, 0.0125, 256), (2.0, 0.025, 256), (2.0, 0.0125, 512), (1.0, 0.025, 512))
MARCH_WINDOW = (0.5, 1.0)
MARCH_GAP_MAX = 0.05       # criterion 10

# Tolerances against reference.json.  Class-matrix entries keep the 1e-12
# absolute constraint of the crossing-class rewrite; everything else is
# deterministic closed forms, quadrature or FFT run at one thread, so a
# relative 1e-9 only absorbs a different SIMD path of the same code.
CLASS_MATRIX_ATOL = 1e-12
SCALAR_RTOL = 1e-9
SCALAR_ATOL = 1e-14


def _r(x: float) -> float:
    return round(float(x), 6)


# ---------------------------------------------------------------------------
# generation


# (lo, hi) of D, crossing time and window width per regime.
_REGIME_RANGES = {
    "free": ((0.02, 0.1), (0.5, 1.25), (0.2, 0.6)),
    "intermediate": ((1.0, 3.0), (4.5, 6.0), (0.25, 0.5)),
    "strong": ((6.0, 10.0), (1.0, 2.0), (1.8, 2.4)),
}
_UNIT_NAMES = ("p0", "d", "t_cross", "width", "t1_frac", "sigma", "shape", "ratio", "phase")


def _span(u: float, lo: float, hi: float) -> float:
    return _r(lo + (hi - lo) * u)


def _latin_hypercube(rng: random.Random, n: int) -> list:
    """n points in [0, 1)^k, one per stratum of width 1/n on every axis.

    Each seed then covers every parameter range evenly, so the pass's
    total work (dominated by a few costly parameter corners) varies little
    from seed to seed, while each config stays random.
    """
    cols = []
    for _ in _UNIT_NAMES:
        col = [(k + rng.random()) / n for k in range(n)]
        rng.shuffle(col)
        cols.append(col)
    return [dict(zip(_UNIT_NAMES, point)) for point in zip(*cols)]


def _scenario_state(u: dict, kind: str, p0: float, x0: float) -> dict:
    if kind == "gaussian":
        return {"gaussian": {"p0": p0, "x0": x0, "sigma": _span(u["sigma"], 0.8, 1.5)}}
    if kind == "cat":
        return {"cat": {"separation": _span(u["shape"], 3.0, 6.0), "p0": p0,
                        "sigma": _span(u["sigma"], 0.8, 1.2), "x0": x0}}
    spread = _span(u["shape"], 1.0, 3.0)
    return {"two_momentum": {"p1": _r(p0 - spread), "p2": _r(p0 + spread), "x0": x0,
                             "sigma": _span(u["sigma"], 1.5, 2.5),
                             "ratio": _span(u["ratio"], 0.5, 1.5),
                             "rel_phase": _span(u["phase"], 0.0, 2.0 * math.pi)}}


def _scenario_config(u: dict, regime: str, kind: str, noiseless: bool, label: str) -> dict:
    """One config whose window falls in ``regime`` of decoherence_verdict.

    ``u`` holds one unit draw per parameter.  With hbar = m = 1, tau_l =
    sqrt(2 / D): ``strong`` needs a window of at least 3 tau_l,
    ``intermediate`` an opening time of at least 3 tau_l and a shorter
    window, ``free`` neither (D = 0, ``noiseless``, makes tau_l infinite).
    """
    d_range, cross_range, width_range = _REGIME_RANGES[regime]
    p0 = -_span(u["p0"], 8.0, 12.0)
    d = 0.0 if noiseless else _span(u["d"], *d_range)
    t_cross = _span(u["t_cross"], *cross_range)
    width = _span(u["width"], *width_range)
    t1 = _r(max(0.05, t_cross - width * (0.3 + 0.4 * u["t1_frac"])))
    t2 = _r(t1 + width)
    x0 = _r(-p0 * t_cross)
    tau_l = math.sqrt(2.0 / d) if d > 0.0 else math.inf
    got = ("strong" if t2 - t1 >= 3.0 * tau_l
           else "intermediate" if t1 >= 3.0 * tau_l else "free")
    if got != regime:
        raise AssertionError(f"{label}: generated a {got} window for the {regime} stratum")
    analyses = ["current", "histories", "continuity"]
    if d > 0.0 and t2 >= math.sqrt(_POVM_THRESHOLD / d):
        analyses.insert(1, "povm")
    return {
        "description": f"generated {regime} {kind} scenario {label}",
        "physical": {"hbar": 1.0, "mass": 1.0, "D": d},
        "state": _scenario_state(u, kind, p0, x0),
        "grid": {"n": 512},
        "time": {"t1": t1, "t2": t2, "n_t": 101},
        "analyses": analyses,
        "thresholds": {},
    }


def _march_config(rng: random.Random, d: float, eps: float, n: int, label: str) -> dict:
    p0 = _r(-rng.uniform(9.0, 11.0))
    t_cross = rng.uniform(0.7, 0.8)
    return {
        "description": f"generated restricted march {label}",
        "physical": {"hbar": 1.0, "mass": 1.0, "D": d},
        "state": {"gaussian": {"p0": p0, "x0": _r(-p0 * t_cross),
                               "sigma": _r(rng.uniform(0.9, 1.1))}},
        "grid": {"n": n},
        "time": {"t1": MARCH_WINDOW[0], "t2": MARCH_WINDOW[1], "eps": eps},
        "analyses": ["stochastic"],
        "thresholds": {"stochastic_gap_max": MARCH_GAP_MAX},
    }


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    """``[(label, input dict)]`` for one workload; a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain":
        q0 = _r(60.0 + rng.uniform(-5.0, 5.0))
        control = {"state": CONTROL_STATE, "intervals": CONTROL_SLICES, "eps": 0.002, "n": 2048}
        battery = {"state": dict(p0=-10.0, q0=q0, sigma=1.0), "D": 2.0,
                   "intervals": BATTERY_INTERVALS, "n": 2048}
        if smoke:
            return [("control", dict(control, n=512))]
        return [("battery", battery), ("control", control)]
    if workload == "scenarios":
        # config i: regime i % 3, state kind (i // 3) % 3; the free stratum
        # alternates D = 0 and small D > 0
        per_regime = 1 if smoke else N_GENERATED // 3
        draws = {regime: _latin_hypercube(rng, per_regime) for regime in REGIMES}
        out = []
        for i in range(3 * per_regime):
            regime, j = REGIMES[i % 3], i // 3
            label = f"gen{i:03d}"
            out.append((label, _scenario_config(
                draws[regime][j], regime, STATE_KINDS[j % 3],
                regime == "free" and j % 2 == 0, label)))
        return out
    if workload == "march":
        grid = MARCH_GRID[:1] if smoke else MARCH_GRID
        return [(f"m{i}", _march_config(rng, d, eps, n, f"m{i}"))
                for i, (d, eps, n) in enumerate(grid)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations


class Op(NamedTuple):
    """One timed call into the program plus the check of what it returned."""

    label: str
    run: Callable[[], dict]          # the timed call; returns named scalars, may raise
    check: Callable[[dict], list]    # problems with those scalars, empty when fine


def _finite_problems(scalars: dict) -> list:
    return [f"{k} = {v!r} is not finite" for k, v in scalars.items()
            if isinstance(v, float) and not math.isfinite(v)]


def _chain_op(label: str, spec: dict) -> Op:
    from qbflow import Interval, PhysParams
    from qbflow import gaussian_engine as ge
    from qbflow import histories as hi

    intervals = [Interval(a, b) for a, b in spec["intervals"]]
    if label == "battery":
        params = PhysParams(hbar=1.0, mass=1.0, D=spec["D"])
        state = ge.make_gaussian_state(**spec["state"])
        eps = None
    else:
        params = PhysParams(hbar=1.0, mass=1.0, D=0.0)
        state = ge.make_two_momentum_state(**spec["state"])
        eps = spec["eps"]

    def run():
        p_lin, p_sq, offdiag = hi.class_operator_probability(
            state, intervals, params, eps=eps, n=spec["n"]
        )
        out = {f"p_lin[{k}]": float(v) for k, v in enumerate(p_lin)}
        out.update({f"p_sq[{k}]": float(v) for k, v in enumerate(p_sq)})
        out["offdiag_max"] = float(offdiag)
        return out

    def check(s):
        problems = _finite_problems(s)
        p_lin = [v for k, v in s.items() if k.startswith("p_lin")]
        p_sq = [v for k, v in s.items() if k.startswith("p_sq")]
        if label == "battery":
            peak = max(p_lin)
            shift = max(abs(a - b) for a, b in zip(p_lin, p_sq))
            if not shift < 0.05 * peak:
                problems.append(f"battery shift {shift:.3g} >= 0.05 * peak {peak:.3g}")
            if not s["offdiag_max"] < 0.1 * peak:
                problems.append(f"battery offdiag {s['offdiag_max']:.3g} >= 0.1 * peak")
        else:
            if not s["offdiag_max"] > 0.3 * max(p_sq):
                problems.append(f"control offdiag {s['offdiag_max']:.3g} <= 0.3 max p_sq")
            if not all(v < 0.0 for v in p_lin):
                problems.append("control p_lin not all negative")
        return problems

    return Op(label, run, check)


def _scenario_op(label, config, diags, out_root, require_ok, record_bytes) -> Op:
    from qbflow import scenario_cli

    calls = itertools.count()

    def run():
        if config is None:
            raise ValueError(f"config rejected: {'; '.join(diags)}")
        # A fresh directory per call: on ext4, truncating and rewriting the
        # previous call's files forces their writeback and made later
        # passes several times slower than the first.
        out_dir = out_root / f"{label}.{next(calls)}"
        summary = scenario_cli.run_scenario(config, out_dir=out_dir, threads=1)
        if record_bytes is not None:
            record_bytes(out_dir)
        out = {}
        for o in summary.outcomes:
            out[f"{o.name}.status"] = o.status
            out.update({f"{o.name}.{k}": float(v) for k, v in o.scalars})
        return out

    def check(s):
        problems = _finite_problems(s)
        for key, value in s.items():
            if key.endswith(".status") and value == "error":
                problems.append(f"{key} = error")
            elif key.endswith(".status") and require_ok and value != "ok":
                problems.append(f"{key} = {value} (the example's own thresholds)")
        if "stochastic.rel_gap" in s:
            if not s["stochastic.rel_gap"] < MARCH_GAP_MAX:
                problems.append(f"march rel_gap {s['stochastic.rel_gap']:.3g} >= {MARCH_GAP_MAX}")
            if "stochastic.mutual_disagreement" not in s:
                problems.append("no mutual_disagreement")
        return problems

    return Op(label, run, check)


def prepare(workload: str, inputs: list, work_dir: Path, record_bytes=None) -> list:
    """Turn generated inputs into ops: write configs, load them, bind calls."""
    if workload == "chain":
        return [_chain_op(label, spec) for label, spec in inputs]
    from qbflow import scenario_cli

    cfg_dir = work_dir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    sources = []
    if workload == "scenarios":
        sources += [(f"example_{name}", entry, True)
                    for name, _, entry in scenario_cli.bundled_examples()]
    for label, tree in inputs:
        path = cfg_dir / f"{label}.json"
        path.write_text(json.dumps(tree, indent=2) + "\n")
        sources.append((label, path, False))
    ops = []
    for label, path, require_ok in sources:
        config, diags = scenario_cli.load_config(path)
        ops.append(_scenario_op(label, config, diags, work_dir / "out",
                                require_ok, record_bytes))
    return ops


# ---------------------------------------------------------------------------
# reference values


def reference_problems(workload: str, label: str, scalars: dict, reference: dict) -> list:
    """Differences from the DEFAULT_SEED values that record_reference.py stored."""
    ref = reference.get(workload, {}).get(label)
    if ref is None:
        return [f"no reference for {workload}/{label}"]
    problems = []
    if set(ref) != set(scalars):
        problems.append(f"scalar names differ from reference: {sorted(set(ref) ^ set(scalars))}")
    for key in sorted(set(ref) & set(scalars)):
        want, got = ref[key], scalars[key]
        if isinstance(want, str) or isinstance(got, str):
            ok = want == got
        elif workload == "chain" and key.startswith(("p_sq", "offdiag")):
            ok = abs(got - want) <= CLASS_MATRIX_ATOL
        else:
            ok = abs(got - want) <= SCALAR_ATOL + SCALAR_RTOL * abs(want)
        if not ok:
            problems.append(f"{key}: {got!r} vs reference {want!r}")
    return problems


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
