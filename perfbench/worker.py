"""One benchmark iteration in a fresh interpreter.

Started by ``run.py`` once per iteration, so the package's ``lru_cache``d
stencil data and Laplacian symbols start cold, as they do for every CLI call.
Set-up time runs from the parent's spawn timestamp (``time.monotonic`` is
system-wide on Linux) until the workload's inputs are ready; the timed region
is the workload's ``execute`` alone.  The result goes to ``--result`` as JSON.

    python3 perfbench/worker.py --workload flow-2d --seed 0 \\
        --spawned "$(python3 -c 'import time; print(time.monotonic())')" \\
        --workdir /tmp/w --result /tmp/w/result.json [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
import traceback
from pathlib import Path

import nonloclab
import numpy as np
import scipy.fft
import workloads
from tracer import Tracer


def _cpu_seconds() -> float:
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, args.workdir)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": time.monotonic() - args.spawned,
        "package": nonloclab.__file__,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "steps": workload.steps,
        "working_set": workload.working_set,
    }
    if not args.setup_only:
        result.update(_iterate(workload, inputs, args.trace))
        result["artifacts"] = {
            str(path.relative_to(args.workdir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(args.workdir.rglob("*")) if path.is_file()
        }
    result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    args.result.write_text(json.dumps(result))
    return 0


def reference_kernel() -> float:
    """Seconds for a fixed numpy/scipy workload that no nonloclab change can alter.

    Timed right before and right after the timed region, it measures how fast
    this machine runs the kinds of operations the workloads do (small-array
    ufuncs and 1D DCTs, cache-sized 2D FFTs, passes over a 1 MiB array) at
    that moment.  Its arrays are small next to any workload's, so it leaves
    the peak resident set alone.
    """
    rng = np.random.default_rng(0)
    small = rng.standard_normal(1024)
    square = rng.standard_normal((160, 160))
    medium = rng.standard_normal(1 << 17)
    t0 = time.perf_counter()
    for _ in range(1000):
        scipy.fft.dct(small, type=2, norm="ortho")
        small ** 3
    for _ in range(30):
        scipy.fft.irfftn(scipy.fft.rfftn(square), s=square.shape)
        square ** 3
    for _ in range(60):
        np.sqrt(medium * medium + 1.0)
    return time.perf_counter() - t0


def _iterate(workload, inputs, trace: bool) -> dict:
    ref_before = reference_kernel()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    error = None
    try:
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            outcome = workload.execute(inputs)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
    except Exception:  # every failure of the program is a failed check, not a crash
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {"wall_s": wall, "cpu_s": cpu, "error": error,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "ref_s": (ref_before + reference_kernel()) / 2}
    checks = [("completed without error", error is None, (error or "").strip()[-300:])]
    if error is None:
        checks += workload.check(outcome)
        out["observations"] = workload.observe(outcome)
    out["checks"] = [[name, bool(ok), detail] for name, ok, detail in checks]
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    return out


if __name__ == "__main__":
    raise SystemExit(main())
