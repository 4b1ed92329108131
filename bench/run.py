"""Benchmark for delaybsde: four workloads through the public API.

Run from the root of a source checkout:

    python3 bench/run.py --workload readme_solve --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --workload all

A run repeats whole rounds (set-up, assumption checks, compute) on the same
seeded inputs until ``--seconds`` have passed, checks every round's outputs,
and prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over rounds); with ``--trace 1`` the run alternates
untraced rounds with rounds in which every layer is wrapped, and the metrics
are the per-layer self times, call counts and bytes per traced round, and the
tracing overhead (median traced minus median untraced ``total_s``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin the BLAS pools before numpy is imported: one thread keeps the timings
# steady on a shared machine and never exceeds nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pin)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("readme_solve", "stability_family", "delayed_segment", "helly_bray")

# Per-layer metrics: (metric name, tracer field, layer, unit).
LAYER_METRICS = [
    ("stochastic_engine.conditional_expectation_s", "self_s",
     "stochastic_engine.conditional_expectation", "s"),
    ("stochastic_engine.conditional_expectation_calls", "calls",
     "stochastic_engine.conditional_expectation", "count"),
    ("stochastic_engine.design_s", "self_s", "stochastic_engine.design", "s"),
    ("stochastic_engine.design_calls", "calls", "stochastic_engine.design", "count"),
    ("stochastic_engine.fit_least_squares_s", "self_s", "stochastic_engine.fit_least_squares", "s"),
    ("picard_solver.node_segment_s", "self_s", "picard_solver.node_segment", "s"),
    ("picard_solver.node_segment_calls", "calls", "picard_solver.node_segment", "count"),
    ("picard_solver.node_segment_bytes", "bytes", "picard_solver.node_segment", "bytes"),
    ("model.context_s", "self_s", "model.context", "s"),
    ("model.context_calls", "calls", "model.context", "count"),
    ("picard_solver.gamma_step_s", "self_s", "picard_solver.gamma_step", "s"),
    ("picard_solver.gamma_step_calls", "calls", "picard_solver.gamma_step", "count"),
    ("picard_solver.build_B_s", "self_s", "picard_solver.build_B", "s"),
    ("picard_solver.solve_self_s", "self_s", "picard_solver.solve", "s"),
    ("registry.driver_s", "self_s", "registry.driver", "s"),
    ("registry.driver_calls", "calls", "registry.driver", "count"),
    ("model.equivalent_norm_s", "self_s", "model.equivalent_norm", "s"),
    ("model.check_conditions_s", "self_s", "model.check_conditions", "s"),
    ("model.probe_lipschitz_s", "self_s", "model.probe_lipschitz", "s"),
    ("model.check_integrability_s", "self_s", "model.check_integrability", "s"),
    ("stability_lab.run_stability_self_s", "self_s", "stability_lab.run_stability", "s"),
    ("stability_lab.generator_gap_s", "self_s", "stability_lab.generator_gap", "s"),
    ("stability_lab.helly_bray_check_s", "self_s", "stability_lab.helly_bray_check", "s"),
    ("stability_lab.bv_tail_curve_s", "self_s", "stability_lab.bv_tail_curve", "s"),
    ("path_calculus.cumulative_stieltjes_s", "self_s", "path_calculus.cumulative_stieltjes", "s"),
    ("path_calculus.cumulative_stieltjes_calls", "calls",
     "path_calculus.cumulative_stieltjes", "count"),
    ("stochastic_engine.simulate_brownian_s", "self_s", "stochastic_engine.simulate_brownian", "s"),
    ("stochastic_engine.realize_increasing_process_s", "self_s",
     "stochastic_engine.realize_increasing_process", "s"),
]


def import_package():
    """Import delaybsde from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import delaybsde
    except ImportError as exc:
        sys.exit(f"cannot import delaybsde from {SRC}: {exc}")
    if Path(delaybsde.__file__).resolve().parent.parent != SRC:
        sys.exit(f"delaybsde was imported from {delaybsde.__file__}, not from {SRC}")
    return delaybsde


def machine_record():
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(wl, seed):
    """One round: set-up, check and compute phases timed, then verification."""
    t0 = time.perf_counter()
    state = wl.setup(seed)
    t1 = time.perf_counter()
    outputs, errors = {}, {}
    for op in wl.check:
        _attempt(op, state, outputs, errors)
    t2 = time.perf_counter()
    for op in wl.compute:
        _attempt(op, state, outputs, errors)
    t3 = time.perf_counter()

    failed, problems = len(errors), [f"{name}: {err}" for name, err in errors.items()]
    for op in wl.check + wl.compute:
        if op.name not in outputs:
            continue
        found = op.verify(state, outputs[op.name])
        if found and op.known_fault:
            failed += 1
        else:
            problems += [f"{op.name}: {p}" for p in found]
    info = wl.info(state, outputs) if wl.info and not errors else {}
    return {"setup_s": t1 - t0, "check_s": t2 - t1, "compute_s": t3 - t2,
            "total_s": t3 - t0, "attempted": len(wl.check) + len(wl.compute),
            "failed": failed, "problems": problems, "info": info}


def _attempt(op, state, outputs, errors):
    try:
        outputs[op.name] = op.run(state)
    except Exception:
        errors[op.name] = traceback.format_exc(limit=3)


class Reference:
    """A fixed mix of interpreter and numpy work that does not use the package.

    The shared machines this runs on drift in speed by a quarter over
    minutes, for Python and numpy code alike.  Every round is bracketed by
    this kernel, and times are reported in reference seconds: wall seconds
    times REF_NOMINAL_S over the kernel's time around the round.  On a
    machine where the kernel takes REF_NOMINAL_S they equal wall seconds.
    """

    def __init__(self):
        self.paths = np.linspace(-1.0, 1.0, 20_000 * 51).reshape(20_000, 51)
        self.design = self.paths[:, :6].copy()

    def seconds(self):
        start = time.perf_counter()
        acc = 0
        for j in range(150_000):
            acc += j * j
        for _ in range(10):
            np.cumsum(self.paths * 1.0001, axis=1)
            np.einsum("ni,nj->ij", self.design, self.design, optimize=False)
            self.paths[:, ::-1].copy()
        return time.perf_counter() - start


REF_NOMINAL_S = 0.1
TIMES = ("setup_s", "check_s", "compute_s", "total_s")
# check_s is printed but kept out of the JSON: the check phases are short and
# memory-bound, and their run-to-run spread reached 0.28 of the median here,
# beyond any bound a metric may have.  Their time is inside total_s.
END_TO_END_TIMES = ("setup_s", "compute_s", "total_s")


def run_rounds(wl, seed, seconds, reference, tracer=None, package=None):
    """Rounds until ``seconds`` have passed.  With a tracer, every second
    round is traced, so that drift in the machine's speed affects the
    untraced and traced sides of the overhead alike."""
    rounds, start = [], time.perf_counter()
    before = reference.seconds()
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(package)
        try:
            result = run_round(wl, seed)
        finally:
            if traced:
                tracer.uninstall()
        after = reference.seconds()
        result["reference_s"] = (before + after) / 2.0
        result["scale"] = REF_NOMINAL_S / result["reference_s"]
        result["traced"] = traced
        before = after
        rounds.append(result)
    return rounds


def median_of(rounds, key, scaled=True):
    return statistics.median(r[key] * (r["scale"] if scaled else 1.0) for r in rounds)


def run_workload(name, seed, seconds, trace):
    package = import_package()
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    print(f"machine: {json.dumps(machine_record(), sort_keys=True)}")
    print(f"workload {name} seed {seed} seconds {seconds} trace {trace}")

    # One untimed round warms the allocator and lazy imports, and refuses
    # inputs whose checks fail, such as declared constants below the probe's.
    problems = run_round(wl, seed)["problems"]
    if wl.preflight:
        problems += wl.preflight(wl.setup(seed))
    if problems:
        sys.exit(f"{name}: workload inputs are invalid:\n" + "\n".join(problems))

    reference = Reference()
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        rounds = run_rounds(wl, seed, seconds, reference, tracer, package)
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        # per traced round; times in reference seconds like the rounds
        time_scale = statistics.median(r["scale"] for r in traced)
        metrics = {
            metric: {"value": getattr(tracer, field)[layer] / len(traced)
                     * (time_scale if unit == "s" else 1.0), "unit": unit}
            for metric, field, layer, unit in LAYER_METRICS}
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "total_s") - median_of(plain, "total_s"),
            "unit": "s"}
    else:
        rounds = run_rounds(wl, seed, seconds, reference)
        metrics = {key: {"value": median_of(rounds, key), "unit": "s"} for key in END_TO_END_TIMES}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}

    problems = [p for r in rounds for p in r["problems"]]
    for p in dict.fromkeys(problems):
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(f"rounds {len(rounds)}; check_s = {median_of(rounds, 'check_s'):.6g} s; "
          "wall-clock medians: "
          + " ".join(f"{key}={median_of(rounds, key, scaled=False):.4g}"
                     for key in TIMES + ("reference_s",)))
    for key, (value, unit) in rounds[-1]["info"].items():
        print(f"  {key} = {value:.6g} {unit}")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))


def run_all(seconds, trace):
    """Every workload in its own process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seconds", str(seconds),
             "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result["metrics"]
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.seed is not None:
            parser.error("--seed needs a single --workload")
        run_all(args.seconds, args.trace)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
