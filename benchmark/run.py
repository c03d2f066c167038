"""Benchmark of the two-round Max-3-XOR pipeline on gap-experiment workloads.

Run from the repository root:

    python3 benchmark/run.py --workload planted-sdp --seed 1 --seconds 30 --trace 0

A workload is a fixed instance set, solved with pipeline seeds taken from
--seed (see workloads.py). A run first times set-up in fresh processes, then solves the whole set with
`xor3sdp.pipeline.two_round`, one instance at a time in this one process,
and repeats the pass while another one still fits in --seconds. Each
solve's time is scaled by a speed probe timed around it (speed.py), and
each instance's time is its median over the passes. Every result is checked.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes with passes that have spans around each stage, and prints the
per-layer metrics. Lines before the last are a report for people; the last
line is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads here or in a setup probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, NamedTuple  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 16
CHECK_TOL = 1e-9


def probe_setup(name: str, seed: int, count: int) -> list[tuple[float, float]]:
    """(import seconds, build seconds) of `count` fresh processes, each
    scaled by the `ascent` probe timed in that process after its build."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        sample = json.loads(out.stdout.splitlines()[-1])
        scale = speed.REFERENCE_S["ascent"] / sample["probe_s"]
        samples.append((sample["import_s"] * scale, sample["build_s"] * scale))
    return samples


class Solve(NamedTuple):
    row: Any  # workloads.Row
    seconds: float
    # mean time of the speed probe just before and just after the solve
    probe_s: float
    assignment: list[int] | None
    report: Any  # xor3sdp.PipelineReport
    error: str | None


def solve_pass(rows, errors, probe) -> list[Solve]:
    """Solve every row once, with a speed probe before and after each."""
    from xor3sdp import pipeline

    results = []
    before = probe()
    for row in rows:
        assignment = report = error = None
        start = time.perf_counter()
        try:
            assignment, report = pipeline.two_round(row.inst, row.cfg, row.row_id)
        except errors as e:
            error = type(e).__name__
        seconds = time.perf_counter() - start
        after = probe()
        results.append(Solve(row, seconds, (before + after) / 2, assignment, report, error))
        before = after
    return results


def pass_seconds(results) -> float:
    return sum(solve.seconds for solve in results)


def run_passes(rows, seconds: float, errors, probe, tracer=None):
    """Untraced passes, and with a tracer traced ones in between: U, T, U, T...
    At least one of each; another pass only while one of median length still
    fits in `seconds` of solving. Returns (untraced, traced) lists of passes."""
    untraced, traced = [], []
    lengths: list[float] = []
    while (
        not untraced
        or (tracer is not None and not traced)
        or sum(lengths) + statistics.median(lengths) <= seconds
    ):
        if tracer is not None and len(traced) < len(untraced):
            with tracer:
                traced.append(solve_pass(rows, errors, probe))
            lengths.append(pass_seconds(traced[-1]))
        else:
            untraced.append(solve_pass(rows, errors, probe))
            lengths.append(pass_seconds(untraced[-1]))
    return untraced, traced


def row_seconds(passes, reference_s: float | None = None) -> list[float]:
    """Each row's median solve time over the passes: as measured, or with a
    reference, scaled to the speed where the probe takes `reference_s`."""
    return [
        statistics.median(
            s.seconds if reference_s is None else s.seconds * reference_s / s.probe_s
            for s in solves
        )
        for solves in zip(*passes)
    ]


def check_pass(results, failures: Counter) -> list:
    """Check each row's output; return its fingerprint rows."""
    from xor3sdp.instances import evaluate

    fingerprint = []
    for row, _, _, assignment, report, error in results:
        if error is not None:
            failures[error] += 1
            fingerprint.append([row.row_id, error])
            continue
        if abs(report.final - evaluate(row.inst, assignment)) > CHECK_TOL:
            failures["final_not_evaluate"] += 1
        elif report.opt is not None and report.final > report.opt + CHECK_TOL:
            failures["final_above_opt"] += 1
        fingerprint.append(
            [report.instance_id, report.final, report.opt, report.seed, report.sdp1, report.sdp2]
        )
    return fingerprint


def digest(fingerprint: list) -> str:
    return hashlib.sha256(json.dumps(fingerprint).encode()).hexdigest()[:16]


def reference_digest(name: str, seed: int) -> str | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def value_metrics(results) -> dict[str, float]:
    good = [(s.row, s.report) for s in results if s.error is None]
    if not good:
        return {}
    ratios = [
        report.final / (report.opt if report.opt is not None else row.reference)
        for row, report in good
    ]
    return {
        "final_mean": statistics.fmean(report.final for _, report in good),
        "approx_ratio_min": min(ratios),
    }


def layer_metrics(tracer, build_tracer, passes) -> dict[str, float]:
    """Per-pass figures from the traced passes."""
    n = len(passes)
    traced_s = sum(pass_seconds(results) for results in passes)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    m: dict[str, float] = {}
    for name in (
        "sdp.solve_relaxation",
        "sdp.relaxation_value",
        "sdp.cw_round",
        "sdp.from_bilinear_poly",
        "oracle.brute_force",
        "instances.random_baseline",
        "instances.evaluate",
        "fourier.instance_objective",
        "pipeline.bilinearize",
        "pipeline.condition",
        "pipeline.two_round",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for name in ("sdp.solve_relaxation", "sdp.relaxation_value"):
        m[f"{name}.calls"] = calls.get(name, 0) / n
    solves = calls.get("sdp.solve_relaxation", 0)
    m["sdp.ascent.best_sweeps"] = counts["sdp.ascent.best_sweeps"] / solves if solves else 0.0
    for name in (
        "sdp.ascent.hit_max_sweeps",
        "sdp.cw_round.candidates",
        "oracle.brute_force.assignments",
        "instances.random_baseline.samples",
    ):
        m[name] = counts[name] / n
    brute_s = self_s.get("oracle.brute_force", 0.0)
    m["oracle.brute_force.assignments_per_s"] = (
        counts["oracle.brute_force.assignments"] / brute_s if brute_s else 0.0
    )
    m["sdp.self_frac"] = sum(v for k, v in self_s.items() if k.startswith("sdp.")) / traced_s
    m["oracle.self_frac"] = brute_s / traced_s
    finals = [
        report.per_seed_finals
        for results in passes
        for _, _, _, _, report, error in results
        if error is None and report.per_seed_finals
    ]
    attempts = sum(len(f) for f in finals)
    at_best = sum(sum(1 for x in f if x >= max(f) - 1e-12) for f in finals)
    m["pipeline.seeds_at_best_frac"] = at_best / attempts if attempts else 0.0
    m["gadget.compose.self_s"] = build_tracer.self_times().get("gadget.compose", 0.0)
    m["gadget.compose.constraints"] = build_tracer.counts["gadget.compose.constraints"]
    return m


# First matching suffix wins.
UNITS = {"_per_s": "1/s", "_s": "s", "_mb": "MB", "_frac": "ratio", "_min": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "fraction" if name == "final_mean" else "count"


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xor3sdp" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from xor3sdp.instances import ValidationError
    from xor3sdp.sdp import NumericalError

    from spans import Tracer
    from workloads import WORKLOADS, build

    # CapExceeded is a ValidationError.
    errors = (ValidationError, NumericalError, AssertionError)
    rows = build(args.workload, args.seed)
    # Set-up is timed in one block, before and apart from the timed passes.
    setup = probe_setup(args.workload, args.seed, SETUP_PROBES)
    tracer = build_tracer = None
    if args.trace:
        with Tracer() as build_tracer:
            build(args.workload, args.seed)
        tracer = Tracer()
    probe_name = WORKLOADS[args.workload][2]
    reference_s = speed.REFERENCE_S[probe_name]
    passes, traced_passes = run_passes(
        rows, args.seconds, errors, speed.PROBES[probe_name], tracer
    )
    row_s = row_seconds(passes, reference_s)

    failures: Counter = Counter()
    fingerprints = [check_pass(results, failures) for results in passes + traced_passes]
    digests = [digest(fingerprint) for fingerprint in fingerprints]
    attempted = sum(len(results) for results in passes + traced_passes)
    failed = sum(failures.values())
    consistent = len(set(digests)) == 1
    correct = consistent and not (
        failures.keys() & {"final_not_evaluate", "final_above_opt", "AssertionError", "NumericalError"}
    )

    if args.trace:
        metrics = layer_metrics(tracer, build_tracer, traced_passes)
        metrics["setup.import_s"] = statistics.median(i for i, _ in setup)
        metrics["setup.build_s"] = statistics.median(b for _, b in setup)
        metrics["trace.solve_s"] = sum(row_seconds(traced_passes, reference_s))
        metrics["trace.overhead_frac"] = metrics["trace.solve_s"] / sum(row_s)
    else:
        metrics = {"solve_s": sum(row_s), "setup_s": statistics.median(i + b for i, b in setup)}
        metrics.update(value_metrics(passes[0]))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = reference_digest(args.workload, args.seed)
    verdict = (
        "no reference for this seed"
        if reference is None
        else "matches reference" if reference == digests[0] else f"DIFFERS from reference {reference}"
    )
    print(
        f"workload {args.workload} seed {args.seed}: {len(rows)} instances, "
        f"{len(passes)} untraced and {len(traced_passes)} traced passes"
    )
    print(f"  rows attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.3f})")
    for kind, k in sorted(failures.items()):
        print(f"  failure {kind}: {k}")
    for label, group in (("untraced", passes), ("traced", traced_passes)):
        if group:
            lengths = ", ".join(f"{pass_seconds(results):.3f}" for results in group)
            print(f"  {label} pass seconds: {lengths}")
    # Each scaled solve time over its instance's median: what scaling left.
    spread = sorted(
        solve.seconds * reference_s / solve.probe_s / median
        for results in passes
        for solve, median in zip(results, row_s)
    )
    # The highest percentile with at least ten solves above it.
    tail_pct = max(0.0, 100 * (len(spread) - 10) / len(spread))
    tail = spread[-11] if len(spread) > 10 else spread[-1]
    probes = [solve.probe_s for results in passes for solve in results]
    print(
        f"  untraced set: {sum(row_s):.3f} s scaled, {sum(row_seconds(passes)):.3f} s "
        f"as measured, at per-instance medians; {probe_name} probe median "
        f"{1000 * statistics.median(probes):.3f} ms (reference {1000 * reference_s:g} ms); "
        f"{len(spread)} solves at p{tail_pct:.0f} {tail:.3f}x their instance's median"
    )
    if args.trace:
        for name in tracer.absent:
            print(f"  absent from the program, not traced: {name}")
        for name in sorted(tracer.uncounted):
            print(f"  counts unavailable for: {name}")
    for row in fingerprints[0]:
        print(f"  row {json.dumps(row)}")
    print(f"  fingerprint {digests[0]} ({verdict}; passes agree: {consistent})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
