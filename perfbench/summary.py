#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics side by side.

    python3 perfbench/summary.py --seed 0 --seconds 40

Each workload runs twice through ``run.py``, each time in a fresh process:
once with ``--trace 0`` for the end-to-end metrics and once with ``--trace
1`` for the per-layer metrics and the tracing overhead.  Every metric is
printed by name with its unit, every correctness failure is listed, and the
whole table is written to ``perfbench/out/summary.json``.  Exits non-zero if
a run failed or any CLI call failed its checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import OUT, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
    if done.returncode != 0:
        print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads((OUT / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args(argv)
    table = {}
    ok = True
    for workload in WORKLOADS:
        untraced = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        if untraced is None or traced is None:
            ok = False
            continue
        table[workload] = {"end_to_end": untraced, "per_layer": traced}
        for result in (untraced, traced):
            ok = ok and result["failed"] == 0
            for message in result["failures"]:
                print(f"FAILED {workload}: {message}")

    stamp = next(iter(table.values()))["end_to_end"]["stamp"] if table else {}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    names = list(table)
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{n:>22s}" for n in names))
    for section in ("end_to_end", "per_layer"):
        units = {}
        for name in names:
            units.update(table[name][section]["units"])
        for metric, unit in units.items():
            cells = " ".join(f"{table[n][section]['metrics'].get(metric, float('nan')):22.6g}"
                             for n in names)
            print(f"{metric:38s} {unit:6s} {cells}")
    for name in names:
        cycles = table[name]["per_layer"]["cycle_s"]
        print(f"{name}: tracing overhead {table[name]['per_layer']['metrics']['trace.overhead']:+.1%} "
              f"(traced cycles {cycles['traced']}, untraced {cycles['untraced']})")
    (OUT / "summary.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
