"""Run one workload repeatedly and show how steady each metric is.

    python3 e2ebench/steady.py --workload serve_hot_zipf --runs 10
    python3 e2ebench/steady.py --workload train_gmm_binary --runs 5 \\
        --traced 3

Each run gets its own seed (``--first-seed`` onwards).  For every
end-to-end metric the tool prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread
``(q3 - q1) / median`` beside the metric's bound from BENCHMARK.json,
and ``ok`` when the spread is under a third of the bound (``setup_s``
has no spread limit).  It also checks that every run was correct and
that the share of failed operations is identical across runs.  With
``--traced N`` the first N seeds are also run traced, and the tool
prints how much each end-to-end metric moves under tracing, against
the untraced runs of the same seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {completed.returncode})")
    every = json.loads(lines[-2].removeprefix("all "))
    return json.loads(lines[-1]), every


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    plain, traced, shares = [], [], set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, every = run_once(args.workload, seed, seconds, False)
        plain.append(every)
        shares.add(Fraction(result["failed"], result["attempted"]))
        line = " ".join(f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{line}", flush=True)
        if not result["correct"]:
            print("  INCORRECT", flush=True)
        if seed < args.first_seed + args.traced:
            traced.append(run_once(args.workload, seed, seconds, True)[1])

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s; failed "
          f"share {'same' if len(shares) == 1 else 'DIFFERS'}: "
          f"{sorted(str(s) for s in shares)}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [run[name] for run in plain]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        verdict = (
            "" if name == "setup_s"
            else "ok" if spread < metric["bound"] / 3 else "WIDE"
        )
        print(f"{name:<14}{mid:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{spread:>9.3f}{metric['bound']:>8.2f}  {verdict}")
        if traced:
            untraced = plain[:len(traced)]
            overhead = statistics.median(
                run[name] for run in traced
            ) / statistics.median(run[name] for run in untraced) - 1
            print(f"{'':<14}traced: {overhead:+.1%} over {len(traced)} "
                  f"seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
