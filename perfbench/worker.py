"""One benchmark process: set up, warm up, run the ops, check them.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
Prints one JSON line: the set-up time and, unless --setup-only, the
per-op wall and CPU times, failures, peak memory and, with --trace 1,
the per-layer metrics.

The reference host is shared, and its speed drifts by up to a factor
1.6 within minutes, so raw per-op times of two runs minutes apart differ
by 20% and more.  Each command is therefore timed between runs of a
fixed calibration kernel (numpy work of the kinds the program does,
independent of the program).  Its wall and CPU times are multiplied by
KERNEL_REF_S over the mean CPU time per kernel round before and after
it: the command's time on a host where a round takes KERNEL_REF_S.
Set-up time is scaled by kernel rounds made right after it.  A change
to the program moves these figures; a change in the host's speed mostly
cancels.  Raw times are reported too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# reference time of one calibration kernel round
KERNEL_REF_S = 0.004
# kernel time next to each command: this share of the command's wall
# time, and at least KERNEL_MIN_S
KERNEL_SHARE = 0.1
KERNEL_MIN_S = 0.03


def os_threads() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def call_cli(main, argv) -> tuple[int, str]:
    """Exit code and captured output of one relasym command line."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = main(argv)
    return rc, sink.getvalue()


def kernel(min_s: float) -> float:
    """CPU seconds per round of a fixed calibration workload.

    Rounds run until they have taken min_s of CPU time.  A round is the
    kinds of work the program spends its time on: a three-term
    recurrence on a few complex points in small numpy arrays (as in
    basis_jets), a scalar recurrence over numpy array elements (as in
    the atom-table kernel and the root residual scale) and a small
    dense eigensolve (as in roots).
    """
    import numpy as np
    z = np.array([3.0, -2.5, 2.0j, 1.5 + 1.5j])
    a = np.linspace(0.5, 0.6, 200)
    c = np.linspace(0.1, 1.0, 200) + 0.0j
    mat = np.cos(np.outer(np.arange(60.0), np.arange(60.0)) * 0.37)
    rounds, cpu0 = 0, time.process_time()
    while rounds == 0 or time.process_time() - cpu0 < min_s:
        prev, cur = np.zeros(4, complex), np.ones(4, complex)
        for ak in a:
            prev, cur = cur, (z - 0.01) * cur - ak * prev
        for _ in range(6):
            zz, vp, vc, tot = complex(1.2, 0.3), 0.0j, 1.0 + 0.0j, 0.0
            for k in range(199):
                vp, vc = vc, ((zz - a[k]) * vc - a[k] * vp) / a[k + 1]
                tot += abs(c[k]) * abs(vc)
        np.linalg.eigvals(mat)
        rounds += 1
    return (time.process_time() - cpu0) / rounds


def run_op(main, op, tracer=None) -> tuple[dict, list]:
    """Times of one op's commands and the problems they showed.

    Times are {"cpu", "wall"} raw and {"cpu_ref", "wall_ref"} scaled to
    the kernel's reference speed; the op's check is not run here.
    """
    shutil.rmtree(op.out, ignore_errors=True)
    problems = []
    times = dict.fromkeys(("cpu", "wall", "cpu_ref", "wall_ref"), 0.0)
    k_prev = kernel(KERNEL_MIN_S)
    for argv in op.argvs:
        if tracer is not None:
            tracer.active = True
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            rc, text = call_cli(main, argv)
        except Exception:
            rc, text = None, traceback.format_exc(limit=4)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if tracer is not None:
            tracer.active = False
        k_next = kernel(max(KERNEL_MIN_S, KERNEL_SHARE * wall))
        times["cpu"] += cpu
        times["wall"] += wall
        speed = 2.0 * KERNEL_REF_S / (k_prev + k_next)
        times["cpu_ref"] += cpu * speed
        times["wall_ref"] += wall * speed
        k_prev = k_next
        if rc != 0:
            problems.append(f"exit {rc} from {' '.join(argv)}: {text[-400:]}")
            break
    return times, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent just before this process started")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} must be 1 before numpy is imported")
    sys.path.insert(0, str(ROOT / "src"))
    import relasym.cli
    if not Path(relasym.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported relasym from {relasym.__file__}, not {ROOT / 'src'}")
    import workloads
    work = Path(args.work)
    ops = workloads.make_ops(args.workload, args.seed, args.ops + 1, work)
    threads = os_threads()
    raw_setup_s = time.monotonic() - args.t0
    if threads not in (None, 1):
        raise SystemExit(f"{threads} OS threads after set-up; expected 1")
    kernel(KERNEL_MIN_S)        # the first rounds pay one-time costs
    speed = KERNEL_REF_S / kernel(2 * KERNEL_MIN_S)
    setup = {"setup_s": raw_setup_s * speed, "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    # reach the command line through the module so traced runs see the wrapper
    cli = relasym.cli

    def attempt(op, tracer=None) -> tuple[dict, bool, list]:
        """(times, whether every command exited 0, problems) of one op."""
        times, problems = run_op(cli.main, op, tracer)
        if problems:
            return times, False, problems
        try:
            return times, True, op.check(lambda a: call_cli(cli.main, a)[0])
        except Exception:
            return times, True, [traceback.format_exc(limit=4)]

    warm_up, *ops = ops
    _, _, problems = attempt(warm_up)
    # a failing warm-up is not counted; the timed ops fail the same way
    for problem in problems[:5]:
        print(f"warm-up: {problem}", file=sys.stderr)
    timings, failed, wrong = [], 0, 0
    for k, op in enumerate(ops):
        times, exited_ok, problems = attempt(op, tracer)
        timings.append(times)
        if problems:
            failed += 1
            wrong += exited_ok
            print("\n".join(f"op {k}: {p}" for p in problems[:5]), file=sys.stderr)
        else:
            shutil.rmtree(op.out, ignore_errors=True)
    result = {
        **setup,
        "attempted": args.ops,
        "failed": failed,
        "correct": wrong == 0,
        "op_s": statistics.median(t["wall_ref"] for t in timings),
        "op_cpu_s": statistics.median(t["cpu_ref"] for t in timings),
        "raw_op_s": statistics.median(t["wall"] for t in timings),
        "raw_op_cpu_s": statistics.median(t["cpu"] for t in timings),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": threads,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(args.ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
