"""qbflow benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload chain|scenarios|march --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the root of a qbflow checkout; the package is imported from that
checkout's ``src/`` and nowhere else.  One *pass* runs every operation of
the workload once; passes repeat while the next one is expected to end
within ``--seconds`` (at least one pass, or one untraced and one traced
pass with ``--trace 1``).  Human-readable lines come first; the last line
of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of spans.py.  See README.md for what each metric means.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before numpy and qbflow

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from typing import NamedTuple

import workloads as wl  # standard library only; qbflow is imported in set_up

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 4           # extra set-ups in fresh processes, for the setup_s median
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
END_TO_END = (
    ("run_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class SetupError(Exception):
    """The benchmark cannot run here (no checkout, wrong package)."""


class Pass(NamedTuple):
    traced: bool
    seconds: float
    op_seconds: list
    failures: list       # (op label, why)
    layers: dict | None  # per-layer totals of a traced pass


def cap_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread, before numpy is imported.

    The workloads run qbflow at its default threads=1; one-thread pools
    (at most nproc) keep a run from competing with itself.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package() -> float:
    """Import qbflow from this checkout's src/; returns the import time."""
    src = ROOT / "src"
    if not (src / "qbflow" / "__init__.py").is_file():
        raise SetupError(f"no qbflow sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import qbflow.scenario_cli  # noqa: F401  (pulls in every layer)
    import_s = time.perf_counter() - start
    origin = Path(sys.modules["qbflow"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"qbflow was imported from {origin}, not from {src}")
    # regime warnings repeat per config with fresh numbers and the op checks
    # judge the outputs, so keep stderr readable; traced calls attribute
    # them to the span wrapper's module
    warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"qbflow\.|spans$")
    return import_s


def set_up(args, work_dir: Path, recorder=None):
    """Import, generate inputs and load them; returns (ops, import_s, setup_s)."""
    import_s = import_package()
    inputs = wl.generate(args.workload, args.seed, smoke=args.smoke)
    record_bytes = None
    if recorder is not None:
        recorder.install()

        def record_bytes(out_dir):
            if recorder.installed:
                recorder.counters["scenario_cli.bytes_written"] += sum(
                    f.stat().st_size for f in Path(out_dir).iterdir()
                )

    ops = wl.prepare(args.workload, inputs, work_dir, record_bytes=record_bytes)
    return ops, import_s, time.perf_counter() - _T0


def probe_setup(args) -> list:
    """Set up again in fresh processes; returns [(import_s, setup_s)]."""
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["import_s"], probe["setup_s"]))
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": np.fft.fft.__module__ + " (pocketfft)",
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(ops, workload, check_reference, reference, recorder=None) -> Pass:
    """Run every op once, timing each and checking its outputs."""
    op_s = []
    failures = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t = time.perf_counter()
        try:
            scalars = op.run()
        except Exception:  # an op failure is counted, not fatal
            op_s.append(time.perf_counter() - t)
            failures.append((op.label, traceback.format_exc(limit=3)))
            continue
        op_s.append(time.perf_counter() - t)
        problems = op.check(scalars)
        if check_reference:
            problems += wl.reference_problems(workload, op.label, scalars, reference)
        if problems:
            failures.append((op.label, "; ".join(problems)))
    seconds = time.perf_counter() - start
    layers = recorder.layer_totals() if recorder is not None else None
    return Pass(recorder is not None, seconds, op_s, failures, layers)


def measure(args, ops, recorder) -> list:
    """Repeat passes while the next round is expected to fit in --seconds."""
    check_reference = args.seed == wl.DEFAULT_SEED and not args.smoke
    reference = wl.load_reference() if check_reference else {}
    modes = (False, True) if recorder is not None else (False,)
    passes = []
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            if recorder is not None:
                recorder.reset()
                if traced:
                    recorder.install()
            try:
                passes.append(run_pass(ops, args.workload, check_reference, reference,
                                       recorder if traced else None))
            finally:
                if recorder is not None:
                    recorder.remove()
            if traced:
                recorder.passes.append(recorder.spans)
        round_s = time.perf_counter() - round_start
        if time.perf_counter() - begin + round_s > args.seconds:
            return passes


def percentile(values, pct: int):
    """Inclusive (interpolated) percentile; a single sample is its own."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def report(args, passes, import_s, setup_s, probes, recorder, setup_totals) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    op_s = [s for p in untraced for s in p.op_seconds]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.op_seconds) for p in passes)
    if recorder is None:
        metrics = {
            "run_s": statistics.median(p.seconds for p in untraced),
            "op_p50_s": percentile(op_s, 50),
            "op_p90_s": percentile(op_s, 90),
            "setup_s": statistics.median([setup_s] + [p[1] for p in probes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    else:
        import spans

        specs = spans.metric_specs()
        units = {name: unit for name, unit, _ in specs}
        metrics = {}
        for name, _, _ in specs:
            metrics[name] = statistics.median(p.layers.get(name, 0.0) for p in traced)
        for key, value in setup_totals.items():
            if key.startswith("scenario_cli.load_config."):
                metrics[key] = value
        metrics["setup.import_s"] = statistics.median([import_s] + [p[0] for p in probes])
        metrics["trace.overhead_s"] = (
            statistics.median(p.seconds for p in traced)
            - statistics.median(p.seconds for p in untraced)
        )
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced + {len(traced)} traced  "
          f"ops/pass {len(passes[0].op_seconds)}  op samples {len(op_s)}")
    print("  pass seconds: " + " ".join(
        f"{p.seconds:.3f}{' (traced)' if p.traced else ''}" for p in passes))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':48s} {len(failures) / attempted:>16.6g} "
          f"(failed {len(failures)} of {attempted} ops)")
    for label, why in failures:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# entry points


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one pass: checks the pipeline, not speed")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    if args.smoke:
        args.seconds = 0.0
    work_dir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, import_s, setup_s = set_up(args, work_dir)
            print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
            return 0
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
        ops, import_s, setup_s = set_up(args, work_dir, recorder)
        setup_totals = {}
        if recorder is not None:
            recorder.remove()
            setup_totals = recorder.layer_totals()
            recorder.passes.append(recorder.spans)
        probes = probe_setup(args)
        env = environment()
        passes = measure(args, ops, recorder)
        result = report(args, passes, import_s, setup_s, probes, recorder, setup_totals)
        print("environment " + json.dumps(env))
        results_dir = WORK_ROOT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        (results_dir / f"{stem}.json").write_text(
            json.dumps({"args": vars(args), "environment": env, "result": result,
                        "passes": [{"seconds": p.seconds, "traced": p.traced} for p in passes]},
                       indent=1)
        )
        if recorder is not None:
            recorder.dump(results_dir / f"{stem}-spans.json")
        print(json.dumps(result))
        return 0
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
