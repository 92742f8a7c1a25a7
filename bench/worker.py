"""Runs one workload in a fresh process and writes what it measured as JSON.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.  Before
the timed loop it runs the output references (the ODE-mode run behind each MC
check) and, for threaded workloads, the thread-invariance comparison.  The timed
loop then repeats the workload until the next repetition would end after
``--seconds``.  With ``--trace 1`` untraced and traced repetitions alternate,
and only the traced ones record spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from spans import Tracer, layer_metrics


class Runner:
    """Executes scenario invocations, checks their outputs and tallies failures."""

    def __init__(self, run_scenario, seed: int, work_dir: Path, ref: dict):
        self.run_scenario = run_scenario
        self.seed = seed
        self.work_dir = work_dir
        self.ref = ref
        self.attempted = 0
        self.failures = []

    def call(self, inv, out_dir: Path) -> int:
        return self.run_scenario(inv.scenario, dict(inv.overrides), out_dir,
                                 seed=self.seed, threads=inv.threads)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"run": label, "problems": problems})

    def check(self, inv, outcome, out_dir: Path) -> dict:
        """Record the checks of one run (``outcome`` is its exit code or a traceback)
        and return its headline numbers."""
        if isinstance(outcome, str):
            self.record(inv.label, [outcome])
            return {}
        problems, headline = workloads.check_run(inv, outcome, out_dir, self.ref)
        self.record(inv.label, problems)
        return headline

    def run_once(self, inv, out_dir: Path, call=None):
        try:
            return (call or self.call)(inv, out_dir)
        except Exception:
            return traceback.format_exc()

    def timed_pass(self, runs: list, tag: str, call=None) -> tuple:
        """Run every invocation once; return (seconds, headline numbers, bytes written)."""
        dirs = [self.work_dir / f"{tag}-{k}-{inv.label}" for k, inv in enumerate(runs)]
        start = time.perf_counter()
        outcomes = [self.run_once(inv, out_dir, call) for inv, out_dir in zip(runs, dirs)]
        elapsed = time.perf_counter() - start
        headlines, written = {}, 0
        for inv, outcome, out_dir in zip(runs, outcomes, dirs):
            headlines[inv.label] = self.check(inv, outcome, out_dir)
            if out_dir.is_dir():
                written += sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file())
            shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed, headlines, written

    def reference(self, inv) -> None:
        """Set the ODE-mode y(0) that the MC check of ``inv`` compares against."""
        ref_inv = workloads.ode_reference(inv)
        out_dir = self.work_dir / ref_inv.label
        headline = self.check(ref_inv, self.run_once(ref_inv, out_dir), out_dir)
        self.ref["mc_ode_y_at_0"] = headline.get("y_at_0", float("nan"))
        shutil.rmtree(out_dir, ignore_errors=True)

    def thread_invariance(self, scenario: str, params: dict, threads: int) -> None:
        """The CSVs of a threaded run must equal those of ``--threads 1`` byte for byte."""
        outputs = {}
        problems = []
        for n in (1, threads):
            inv = workloads.Invocation(f"thread_invariance_t{n}", scenario, params,
                                       "converged", "scheme_mc", threads=n)
            out_dir = self.work_dir / inv.label
            outcome = self.run_once(inv, out_dir)
            if outcome != 0:
                problems.append(f"--threads {n} ended with {outcome}")
            outputs[n] = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
            shutil.rmtree(out_dir, ignore_errors=True)
        if not outputs[1]:
            problems.append("no CSV written")
        elif outputs[1] != outputs[threads]:
            differ = sorted(k for k in outputs[1].keys() | outputs[threads].keys()
                            if outputs[1].get(k) != outputs[threads].get(k))
            problems.append(f"CSVs differ between --threads 1 and {threads}: {differ}")
        self.record(f"thread_invariance_t1_vs_t{threads}", problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import bsdelab
    import bsdelab.cli

    src = Path(os.environ["PYTHONPATH"]).resolve()
    if Path(bsdelab.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"bsdelab imported from {bsdelab.__file__}, not from {src}\n")
        return 2

    workload = workloads.WORKLOADS[args.workload]
    runs = workload.runs(args.tiny, args.threads)
    work_dir = Path(args.work_dir)
    runner = Runner(bsdelab.cli.run_scenario, args.seed, work_dir,
                    dict(workloads.REFERENCE))
    for inv in runs:
        if inv.check == "scheme_mc":
            runner.reference(inv)
    if workload.thread_invariance and args.threads > 1:
        runner.thread_invariance(runs[0].scenario, workload.thread_invariance, args.threads)

    tracer = Tracer() if args.trace else None
    plain, traced, per_layer, headlines, all_spans = [], [], [], {}, []
    start = time.perf_counter()
    for rep in itertools.count():
        elapsed, headlines, written = runner.timed_pass(runs, f"rep{rep}")
        plain.append(elapsed)
        if tracer is not None:
            tracer.install()
            try:
                elapsed, _, written = runner.timed_pass(
                    runs, f"rep{rep}-traced",
                    call=tracer.span(runner.call, "cli.run_scenario", "cli"))
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            spans, counts = tracer.take()
            layer = layer_metrics(spans, counts)
            layer["cli.bytes_written"] = written
            per_layer.append(layer)
            all_spans.append([[s.id, s.parent, s.name, s.start, s.end, s.error]
                              for s in spans])
        per_rep = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        if time.perf_counter() - start + per_rep > args.seconds:
            break

    if args.spans and tracer is not None:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "error"],
                       "repetitions": all_spans}, fh)
    result = {
        "wall_s": plain,
        "traced_wall_s": traced,
        "per_layer": per_layer,
        "unwrapped_sites": tracer.missing if tracer else [],
        "attempted": runner.attempted,
        "failures": runner.failures,
        "headline": headlines,
        "mc_ode_y_at_0": runner.ref.get("mc_ode_y_at_0"),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
