"""nonloclab benchmark driver.

    python3 perfbench/run.py --workload solution-1d --seed 0 --seconds 25 --trace 0

Runs iterations of one workload, each in a fresh interpreter
(``perfbench/worker.py``), for about ``--seconds`` seconds: at least two
iterations, and another one only while it is expected to end within the
budget.  Prints each end-to-end metric by name and unit, the verdict of every
failed check, the run metadata, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json`` (medians over the
iterations); with ``--trace 1`` untraced and traced iterations alternate and
the metrics are the per-layer ones, taken from the traced iterations.

Times in ``ref`` units are divided by the time of the worker's reference
kernel, run right before and after the timed region: on a shared machine
whose speed drifts, that ratio repeats far better than seconds do.

``--workload all`` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solution-1d", "flow-2d", "rate-sweep", "oracle")
SETUP_PROBES = 3            # extra set-up-only processes per run, for the setup_s median
TIME_LIMIT_S = 160.0        # a worker still running this long after the run began is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# reference values: relative tolerance plus an absolute floor for values near 0
REL_TOL = 1e-8
ABS_TOL = 1e-12
EXPECTED = HERE / "expected.json"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(os.cpu_count() or 1)
    return env


def spawn(workload: str, seed: int, workdir: Path, *, traced=False, setup_only=False,
          timeout=TIME_LIMIT_S) -> dict:
    """Run one worker process to completion and return its result."""
    shutil.rmtree(workdir, ignore_errors=True)
    result_path = workdir.with_name(workdir.name + ".json")
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), "--result", str(result_path)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(started)], env=worker_env(),
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(result_path.read_text())
    result["duration_s"] = time.monotonic() - started
    return result


def close(actual, expected) -> bool:
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(close(a, e) for a, e in zip(actual, expected)))
    return (isinstance(actual, (int, float)) and math.isfinite(actual)
            and abs(actual - expected) <= REL_TOL * abs(expected) + ABS_TOL)


def reference_for(workload: str, seed: int):
    """Captured observations for this workload and seed, or None."""
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text()).get(workload, {})
    return table.get("any", table.get(str(seed)))


def iteration_checks(it: dict, first: dict, reference) -> list:
    """The worker's own checks plus those that compare across iterations."""
    checks = [tuple(c) for c in it["checks"]]
    if it is not first:
        checks.append(("output files byte-identical to the first iteration",
                       it["artifacts"] == first["artifacts"], f"{len(it['artifacts'])} files"))
    if reference is not None and "observations" in it:
        obs = it["observations"]
        off = sorted(k for k in set(reference) | set(obs)
                     if k not in obs or k not in reference or not close(obs[k], reference[k]))
        checks.append(("matches captured reference values", not off,
                       f"differing: {off[:5]}" if off else f"{len(reference)} values"))
    return checks


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """All iterations of one run, the checks over them, and the metrics.

    Three set-up probes, then iterations (alternately untraced and traced
    with ``trace``) until at least two have run, both kinds among them, and
    the next one is not expected to end within ``seconds``.
    """
    t0 = time.monotonic()
    probes = [spawn(workload, seed, workdir, setup_only=True) for _ in range(SETUP_PROBES)]
    iterations = []
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(spawn(workload, seed, workdir, traced=traced,
                                timeout=TIME_LIMIT_S - (time.monotonic() - t0)))
        if "crashed" in iterations[-1]:
            break
        kinds = {it["traced"] for it in iterations}
        enough = len(iterations) >= 2 and kinds == ({False, True} if trace else {False})
        expected_end = time.monotonic() - t0 + iterations[-1]["duration_s"]
        if enough and expected_end > min(seconds, TIME_LIMIT_S):
            break

    reference = reference_for(workload, seed)
    checks = []
    done = [it for it in iterations if "crashed" not in it]
    for it in probes + iterations:
        if "crashed" in it:
            checks.append(("worker process ran", False, it["crashed"]))
            continue
        checks.append(("package imported from this checkout",
                       Path(it["package"]).resolve().is_relative_to(ROOT / "src"),
                       it["package"]))
        if "checks" in it:
            checks += iteration_checks(it, done[0], reference)

    plain = [it for it in done if not it["traced"]]
    setups = [it["setup_s"] for it in probes + done if "setup_s" in it]
    median = statistics.median
    return {
        "checks": checks,
        "iterations": len(iterations),
        "traced_iterations": len(done) - len(plain),
        "done": done,
        "steps": done[0]["steps"] if done else 0,
        "wall_s": median(it["wall_s"] for it in plain) if plain else math.nan,
        "cpu_s": median(it["cpu_s"] for it in plain) if plain else math.nan,
        "peak_rss_mb": median(it["peak_rss_mb"] for it in plain) if plain else math.nan,
        "wall_ref": median(it["wall_s"] / it["ref_s"] for it in plain) if plain else math.nan,
        "cpu_ref": median(it["cpu_s"] / it["ref_s"] for it in plain) if plain else math.nan,
        "ref_s": median(it["ref_s"] for it in plain) if plain else math.nan,
        "setup_s": median(setups) if setups else math.nan,
    }


def layer_metrics(run: dict) -> dict:
    traced = [it for it in run["done"] if it["traced"] and "layers" in it]
    if not traced:
        return {}
    keys = set().union(*(it["layers"] for it in traced))
    out = {k: statistics.median(it["layers"].get(k, 0.0) for it in traced) for k in keys}
    step_s = out.get("solvers.step.s", 0.0)
    out["potentials.fprime.step_share"] = (out.get("potentials.fprime.self_s", 0.0) / step_s
                                           if step_s else 0.0)
    out["steps_per_s"] = run["steps"] / run["wall_s"] if run["steps"] else 0.0
    wall_traced = statistics.median(it["wall_s"] / it["ref_s"] for it in traced)
    out["trace.overhead_frac"] = wall_traced / run["wall_ref"] - 1.0
    return out


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, run: dict) -> dict:
    env = worker_env()
    first = run["done"][0] if run["done"] else {}
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **first.get("versions", {}),
        "git_sha": git_sha(),
        "thread_caps": {var: env[var] for var in THREAD_VARS},
        "working_set": first.get("working_set"),
        "iterations": run["iterations"],
        "traced_iterations": run["traced_iterations"],
        "setup_probes": SETUP_PROBES,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    workdir = ROOT / ".perfbench-work" / "iteration"
    try:
        run = measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    failed = sum(1 for _, ok, _ in run["checks"] if not ok)
    attempted = len(run["checks"])
    steps_per_s = run["steps"] / run["wall_s"] if run["steps"] else None
    human = {
        "wall_s": (run["wall_s"], "s"),
        "wall_ref": (run["wall_ref"], "ref"),
        "steps_per_s": (steps_per_s, "1/s"),
        "cpu_s": (run["cpu_s"], "s"),
        "cpu_ref": (run["cpu_ref"], "ref"),
        "setup_s": (run["setup_s"], "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "failed_frac": (failed / attempted, "ratio"),
        "ref_s": (run["ref_s"], "s"),
    }
    if trace:
        layers = layer_metrics(run)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": human[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return run, human, metrics, failed, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nonloclab benchmark driver")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nonloclab" / "__init__.py").is_file():
        print(f"perfbench: no nonloclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for name in names:
        run, human, metrics, failed, attempted = run_one(
            name, args.seed, args.seconds, bool(args.trace), spec)
        print(f"== {name} (seed {args.seed}, {run['iterations']} iterations)")
        for metric, (value, unit) in human.items():
            shown = "n/a (no time stepping)" if value is None else f"{value:.6g} {unit}"
            print(f"  {metric:<13} {shown}")
        print(f"  checks        {attempted - failed}/{attempted} pass")
        for check, ok, detail in run["checks"]:
            if not ok:
                print(f"  FAIL {check}: {detail}")
        if args.trace:
            for metric, value in sorted(metrics.items()):
                print(f"  {metric:<46} {value['value']:.6g} {value['unit']}")
        print("meta " + json.dumps(metadata(name, args.seed, run), sort_keys=True))
        summary[name] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": metrics}
    if len(names) == 1:
        print(json.dumps(summary[names[0]]))
    else:
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
