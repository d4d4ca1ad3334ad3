"""Record reference.json: every op's scalars at the default seed.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs become the reference; a later
benchmark run with ``--seed 0`` compares every scalar against this file
(tolerances in workloads.py).  Re-recording is a change to the benchmark
and belongs in its own commit, never in one that changes the program.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.cap_threads()
    run.import_package()
    import workloads as wl

    work_dir = run.WORK_ROOT / "record-reference"
    reference = {}
    try:
        for workload in wl.WORKLOADS:
            ops = wl.prepare(workload, wl.generate(workload, wl.DEFAULT_SEED), work_dir)
            reference[workload] = {}
            for op in ops:
                scalars = op.run()
                problems = op.check(scalars)
                if problems:
                    print(f"{workload}/{op.label}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                reference[workload][op.label] = scalars
            print(f"{workload}: {len(ops)} ops recorded")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
