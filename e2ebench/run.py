"""Run one workload of the end-to-end benchmark and print its result.

    python3 e2ebench/run.py --workload train_gmm_binary --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it, ``all {...}``, carries every number the run measured, so a
traced run's end-to-end figures can be set against an untraced run's
(the difference is the tracing overhead).  Names, units and bounds are
declared in ``BENCHMARK.json`` at the repository root; ``README.md``
next to this file describes the workloads.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every process
# started from here (they inherit the environment): BLAS threads
# contend with the runtime's workers on a small host.
for _variable in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".e2ebench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import serving
    import training

    workloads = {
        "train_gmm_binary": training.train_gmm_binary,
        "train_nn_multiway": training.train_nn_multiway,
        "serve_hot_zipf": serving.serve_hot_zipf,
        "serve_updates": serving.serve_updates,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload; choose from {sorted(workloads)}")

    # Everything the run writes (databases, temp files) stays in the
    # checkout, under a directory removed when the run ends.
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        metrics, attempted, failed, correct = workloads[args.workload](
            args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    metrics.setdefault("peak_rss_mb", harness.peak_rss_mb())
    print("all " + json.dumps(metrics, sort_keys=True))
    print(json.dumps(
        harness.emit(correct, attempted, failed, metrics, bool(args.trace))
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
