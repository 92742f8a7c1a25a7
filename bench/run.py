"""bsdelab benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload mc_scheme --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
``--trace 0`` prints the end-to-end metrics (median wall time of one workload
run, import time of ``bsdelab.cli`` in a fresh interpreter, peak resident
memory, share of checked runs that passed); ``--trace 1`` prints the per-layer
metrics of a traced run and the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result set (machine, headline numbers, every sample,
the failures) goes to ``.bench_work/results/``, the spans of a traced run to
``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIME_LIMIT_S = 175          # every run must end within 180 s
SETUP_SAMPLES = 5
COMPUTED = ["paths.draws", "paths.bundle_mb", "lipschitz_solver.fit.design_mb"]
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import bsdelab.cli; "
                  "print(time.perf_counter() - t)")

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402


def load_metric_units() -> dict:
    """Metric name -> unit for the end-to-end and per-layer lists of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the only threads are the workload's own --threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure_setup(env: dict, deadline: float) -> list:
    """Import time of ``bsdelab.cli`` in fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1))
        if out.returncode != 0:
            raise RuntimeError(f"importing bsdelab.cli failed:\n{out.stderr}")
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(args, threads: int, env: dict, work_dir: Path, result_path: Path,
               spans_path: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads), "--work-dir", str(work_dir),
           "--result", str(result_path), "--spans", str(spans_path)]
    if args.size == "tiny":
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RuntimeError("the workload did not finish within the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"the worker exited with code {rc}")
    return json.loads(result_path.read_text())


def end_to_end(res: dict, setup: list) -> dict:
    attempted = res["attempted"]
    return {
        "wall_s": statistics.median(res["wall_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_kib"] * 1024 / 1e6,
        "pass_rate": (attempted - len(res["failures"])) / attempted,
    }


def per_layer(res: dict) -> dict:
    layers = res["per_layer"]
    out = {}
    for name in layers[0]:
        values = [rep[name] for rep in layers]
        # counts stay whole numbers
        pick = statistics.median_low if isinstance(values[0], int) else statistics.median
        out[name] = pick(values)
    out["trace.overhead_s"] = (statistics.median(res["traced_wall_s"])
                               - statistics.median(res["wall_s"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="MC seed of the workload")
    parser.add_argument("--seconds", type=float, required=True,
                        help="stop before a repetition that would end later than this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: reduced problem sizes for the smoke test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "bsdelab" / "__init__.py").is_file():
        sys.stderr.write(f"no bsdelab sources under {ROOT / 'src'}: nothing to measure\n")
        return 2
    units = load_metric_units()
    threads = min(2, nproc())
    env = worker_env()
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    work_root = ROOT / ".bench_work"
    work_dir = work_root / "out" / tag
    for sub in ("results", "spans"):
        (work_root / sub).mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    result_path = work_root / "results" / f"{tag}.json"
    spans_path = work_root / "spans" / f"{tag}.json"

    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        res = run_worker(args, threads, env, work_dir, result_path, spans_path, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        values = per_layer(res)
        wanted = units["per_layer"]
    else:
        values = end_to_end(res, setup)
        wanted = units["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    machine = {
        "nproc": nproc(), "cpu_model": cpu_model(), **res["versions"],
        "openblas_num_threads": env["OPENBLAS_NUM_THREADS"], "workload_threads": threads,
        "git_revision": git_revision(), "platform": platform.platform(),
    }
    failed = len(res["failures"])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine,
        "samples": {"wall_s": res["wall_s"], "traced_wall_s": res["traced_wall_s"],
                    "setup_s": setup},
        "headline": res["headline"], "mc_ode_y_at_0": res["mc_ode_y_at_0"],
        "failures": res["failures"], "unwrapped_sites": res["unwrapped_sites"],
        "all_layer_values": res["per_layer"],
        "computed_from_array_sizes": COMPUTED,
        "metrics": metrics,
    }
    result_path.write_text(json.dumps(summary, indent=1))

    print(f"# machine: {json.dumps(machine)}")
    print(f"# samples: {len(res['wall_s'])} untraced, {len(res['traced_wall_s'])} traced "
          f"repetitions of {args.workload}; setup: {len(setup)} fresh imports")
    for label, headline in res["headline"].items():
        print(f"# headline {label}: {json.dumps(headline)}")
    if args.trace:
        print("# computed from array sizes, not measured: " + ", ".join(COMPUTED))
    if res["unwrapped_sites"]:
        print(f"# call sites not found (their layer metrics read 0): {res['unwrapped_sites']}")
    for failure in res["failures"]:
        print(f"# FAILED {failure['run']}: {failure['problems']}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(f"# result set: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
