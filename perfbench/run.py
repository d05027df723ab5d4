"""The relasym benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload ladders --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  The ops run in a fresh worker process with BLAS pinned to one
thread.  --seconds fixes how many ops a run makes (see OP_SECONDS), so
every run of a workload does the same work.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones from a traced worker
plus import times from `python -X importtime`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BLAS_THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# seconds one op takes on the reference host (README): a run of
# --seconds S makes ceil(S / OP_SECONDS) ops after one warm-up op
OP_SECONDS = {"ladders": 1.0, "zeros_deep": 2.8, "atom_measure": 3.3}
MIN_OPS = 3
# set-up is timed in this many fresh processes, the median reported
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_ROOTS = ("relasym", "scipy", "mpmath")
# the whole run must end within 180 s
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list, deadline: float, capture_stderr: bool = False):
    """Run a child to completion (killed at the deadline); CompletedProcess."""
    return subprocess.run(argv, cwd=ROOT, env=worker_env(), text=True,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if capture_stderr else None,
                          timeout=max(1.0, deadline - time.monotonic()))


def run_worker(args, ops: int, work: Path, deadline: float, setup_only=False) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--ops", str(ops), "--trace", str(args.trace),
            "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    proc = run_child(argv + ["--t0", repr(t0)], deadline)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_times(text: str) -> dict:
    """Seconds spent importing each root package, from -X importtime output.

    A module counts once, at its outermost entry: its cumulative time
    already holds everything it imported.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = dict.fromkeys(IMPORT_ROOTS, 0)
    stack: list = []
    # importtime prints a module after its children, so walk it backwards
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(r != root for _, r in stack):
            totals[root] += cumulative
        stack.append((depth, root))
    return {root: us * 1e-6 for root, us in totals.items()}


def measure_imports(deadline: float) -> dict:
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import relasym"],
                         deadline, capture_stderr=True)
        if proc.returncode != 0:
            raise RuntimeError(f"importing relasym failed: {proc.stderr[-400:]}")
        samples.append(import_times(proc.stderr))
    return {f"import.{root}_s": (statistics.median(s[root] for s in samples), "s")
            for root in IMPORT_ROOTS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(OP_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not (ROOT / "src" / "relasym" / "__init__.py").is_file():
        return fail(f"no relasym sources under {ROOT / 'src'}")
    ops = max(MIN_OPS, math.ceil(args.seconds / OP_SECONDS[args.workload]))
    out = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)

    try:
        if args.trace:
            res = run_worker(args, ops, out / "run", deadline)
            metrics = dict(res["layers"])
            metrics.update(measure_imports(deadline))
        else:
            setups = [run_worker(args, ops, out / f"setup{k}", deadline, setup_only=True)
                      for k in range(SETUP_REPEATS - 1)]
            res = run_worker(args, ops, out / "run", deadline)
            setups.append(res)
            res["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
            metrics = {"op_s": (res["op_s"], "s"), "op_cpu_s": (res["op_cpu_s"], "s"),
                       "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
                       "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))
    print(f"perfbench: {args.workload} seed={args.seed} ops={ops} trace={args.trace} "
          f"op_cpu_s={res['op_cpu_s']:.4f} op_s={res['op_s']:.4f} "
          f"raw_op_cpu_s={res['raw_op_cpu_s']:.4f} raw_op_s={res['raw_op_s']:.4f} "
          f"raw_setup_s={res['raw_setup_s']:.4f} "
          f"threads={res['threads']}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
