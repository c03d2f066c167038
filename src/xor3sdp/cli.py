"""Command-line driver.

Subcommands: gen, compose, verify-dist, fourier, solve, brute, experiment.
Every solve/brute/experiment run emits a JSON-lines report (stdout or
--report FILE): first a {"config": ...} line echoing the full configuration
including defaults, then one object per result row, then an {"aggregate":
...} line for experiments. Exit codes: 0 success, 1 usage error, 2
cap/validation error, 3 internal numerical failure, 4 violated internal
invariant (a cross-check of the pipeline's results failed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import distributions, fourier, gadget, instances, oracle, pipeline, sdp

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict

    def to_json(self) -> dict:
        return {"command": self.command, **self.params}


def _config_from_args(command: str, args: argparse.Namespace) -> RunConfig:
    params = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")}
    return RunConfig(command, params)


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit_report(lines: list[dict], path: str | None, out) -> None:
    body = "\n".join(_dump_line(x) for x in lines) + "\n"
    if path:
        Path(path).write_text(body, encoding="utf-8", newline="\n")
    else:
        out.write(body)


def _emit_csv(rows: list[dict], path: str) -> None:
    import csv

    cols = [
        "id", "n_vars", "n_cons", "baseline", "sdp1", "sdp2",
        "final", "opt", "margin", "consistency", "seed", "ms",
        "sweeps1", "sweeps2", "converged", "per_seed_finals",
        "f1_plus_frac", "cubic_at_opt", "degenerate_cubic",
    ]
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=cols, extrasaction="ignore", lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow({**r, "per_seed_finals": ";".join(map(str, r["per_seed_finals"]))})


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from None


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _sdp_config(args: argparse.Namespace) -> sdp.SdpConfig:
    return sdp.SdpConfig(
        rank=args.rank,
        max_sweeps=args.sweeps,
        tol=args.sdp_tol,
        trials=args.trials,
        seed=args.seed,
    )


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(
        sdp=_sdp_config(args),
        n_seeds=args.n_seeds,
        oracle=args.oracle,
        seed=args.seed,
    )


def _add_sdp_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, default=None, help="factor rank (default ~sqrt(2n)+1)")
    p.add_argument("--sweeps", type=int, default=200)
    p.add_argument("--sdp-tol", type=float, default=1e-9)
    p.add_argument("--trials", type=int, default=25, help="rounding trials per T grid")
    p.add_argument("--n-seeds", type=int, default=5, help="pipeline attempts, best kept")


def _gen_out_path(out: str, index: int, count: int) -> Path:
    p = Path(out)
    if count == 1:
        return p
    return p.with_name(f"{p.stem}-{index:03d}{p.suffix or '.mx3'}")


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _config_from_args("gen", args)
    sizes = tuple(args.sizes)
    for i in range(args.count):
        seed_i = args.seed * 10000 + i
        comments = [f"generated by xor3sdp gen: {_dump_line(cfg.to_json())}", f"instance-seed {seed_i}"]
        if args.family == "planted":
            inst, plant = instances.generate_planted(
                sizes, args.constraints, args.eps, seed_i
            )
            comments.append(
                "plant " + " ".join(
                    str(v) for v in plant.block1 + plant.block2 + plant.block3
                )
            )
        else:
            inst = instances.generate_random(sizes, args.constraints, seed_i)
        path = _gen_out_path(args.out, i, args.count)
        instances.save(inst, str(path), comments)
        print(path)
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    cfg = _config_from_args("compose", args)
    if args.label_cover:
        lc = gadget.load_label_cover(args.label_cover)
    else:
        lc = gadget.make_label_cover(
            args.labels, args.mult, args.left, args.right, args.degree, args.seed
        )
    if args.save_label_cover:
        gadget.save_label_cover(lc, args.save_label_cover)
    base = (
        distributions.parse_distribution(Path(args.dist).read_text(encoding="utf-8"))
        if args.dist
        else gadget.uniform_xor_base()
    )
    inst = gadget.compose(
        lc, base, args.noise, per_edge_budget=args.budget, mode=args.mode, seed=args.seed
    )
    comments = [f"generated by xor3sdp compose: {_dump_line(cfg.to_json())}"]
    instances.save(inst, args.out, comments)
    print(args.out)
    return EXIT_OK


def cmd_verify_dist(args: argparse.Namespace) -> int:
    dist = distributions.parse_distribution(Path(args.file).read_text(encoding="utf-8"))
    bias = args.bias
    out = sys.stdout
    out.write(f"arity {dist.k}, support size {len(distributions.ground(dist))}\n")
    out.write("ground:\n")
    for t in sorted(distributions.ground(dist), key=distributions.plus_first_key):
        word = "".join("+" if v == 1 else "-" for v in t)
        out.write(f"  {word} {dist.prob(t)}\n")
    out.write("single-coordinate marginals P[z_i=1]:\n")
    for i in range(1, dist.k + 1):
        out.write(f"  i={i}: {distributions.marginal_prob_one(dist, i)}\n")
    out.write("pair marginals P[z_i=1, z_j=1]:\n")
    for i in range(1, dist.k + 1):
        for j in range(i + 1, dist.k + 1):
            out.write(f"  i={i} j={j}: {distributions.pair_prob_one(dist, i, j)}\n")
    check = distributions.check_pairwise_independent(dist, bias, args.tol)
    if check.holds:
        out.write(f"pairwise independent at bias {bias}: holds\n")
    else:
        assert check.witness is not None
        out.write(
            f"pairwise independent at bias {bias}: FAILS ({check.witness.describe()})\n"
        )
    return EXIT_OK


def cmd_fourier(args: argparse.Namespace) -> int:
    inst = instances.load(args.file)
    poly = fourier.instance_objective(inst)
    if args.degree is not None:
        poly = fourier.degree_slice(poly, args.degree)
    sys.stdout.write(fourier.format_poly(poly))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _config_from_args("solve", args)
    inst = instances.load(args.file)
    _, report = pipeline.two_round(inst, _pipeline_config(args), Path(args.file).stem)
    rows = [report.to_row()]
    _emit_report([{"config": cfg.to_json()}] + rows, args.report, sys.stdout)
    if args.csv:
        _emit_csv(rows, args.csv)
    return EXIT_OK


def cmd_brute(args: argparse.Namespace) -> int:
    cfg = _config_from_args("brute", args)
    inst = instances.load(args.file)
    res = oracle.brute_force(inst)
    row = {
        "id": Path(args.file).stem,
        "optimum": res.optimum,
        "count": res.count,
        "assignment": list(res.assignment.block1 + res.assignment.block2 + res.assignment.block3),
    }
    _emit_report([{"config": cfg.to_json()}, row], args.report, sys.stdout)
    return EXIT_OK


def cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _config_from_args("experiment", args)
    spec = pipeline.FamilySpec(
        kind=args.family,
        count=args.count,
        sizes=tuple(args.sizes),
        n_constraints=args.constraints,
        corrupt_frac=args.eps,
        n_labels=args.labels,
        mult=args.mult,
        n_left=args.left,
        n_right=args.right,
        degree=args.degree,
        noise=args.noise,
        per_edge_budget=args.budget,
        mode=args.mode,
    )
    reports, aggregate = pipeline.gap_experiment(spec, _pipeline_config(args))
    rows = [
        r.to_row() if isinstance(r, pipeline.PipelineReport) else r for r in reports
    ]
    lines = [{"config": cfg.to_json()}] + rows + [{"aggregate": aggregate}]
    _emit_report(lines, args.report, sys.stdout)
    if args.csv:
        _emit_csv([r for r in rows if "error" not in r], args.csv)
    return EXIT_OK


def build_parser() -> Parser:
    parser = Parser(prog="xor3sdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance families")
    p.add_argument("--family", choices=("planted", "random"), required=True)
    p.add_argument("--sizes", type=int, nargs=3, metavar=("M", "N2", "N3"), default=[4, 4, 4])
    p.add_argument("--constraints", type=int, default=24)
    p.add_argument("--eps", type=float, default=0.0, help="corrupted fraction (planted)")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compose", help="compose a label cover into a Max-C instance")
    p.add_argument("--label-cover", help="read the label cover from this file")
    p.add_argument("--labels", type=int, default=1, help="left alphabet size")
    p.add_argument("--mult", type=int, default=1, help="preimages per label")
    p.add_argument("--left", type=int, default=1)
    p.add_argument("--right", type=int, default=1)
    p.add_argument("--degree", type=int, default=1, help="left vertex degree")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=4096, help="per-edge constraint budget")
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--dist", help="base distribution file (default: uniform XOR base)")
    p.add_argument("--save-label-cover")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("verify-dist", help="check a distribution file")
    p.add_argument("file")
    p.add_argument("--bias", type=_fraction, default="1/2", help="target marginal, e.g. 1/2")
    p.add_argument("--tol", type=_fraction, default="0", help="tolerance (exact by default)")
    p.set_defaults(func=cmd_verify_dist)

    p = sub.add_parser("fourier", help="dump an instance's objective polynomial")
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=None, help="keep only this degree")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("solve", help="run the two-round pipeline on an instance")
    p.add_argument("file")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--report")
    p.add_argument("--csv")
    _add_sdp_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("brute", help="exact optimum (the two smallest blocks <= 26 vars)")
    p.add_argument("file")
    p.add_argument("--report")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("experiment", help="run the pipeline over an instance family")
    p.add_argument("--family", choices=("planted", "random", "composed"), required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--sizes", type=int, nargs=3, metavar=("M", "N2", "N3"), default=[6, 6, 6])
    p.add_argument("--constraints", type=int, default=60)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--labels", type=int, default=1)
    p.add_argument("--mult", type=int, default=2)
    p.add_argument("--left", type=int, default=1)
    p.add_argument("--right", type=int, default=1)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--budget", type=int, default=4096)
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--report")
    p.add_argument("--csv")
    _add_sdp_args(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (instances.FormatError, instances.ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (sdp.NumericalError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AssertionError as e:
        print(f"invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
