"""Command-line interface: offline analyses emitting CSV reports.

Exit codes: 0 success, 2 input error, 3 numeric-precondition failure.
All outputs are plain CSV (plot-ready data, no rendering).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ._numutil import write_text
from .argbranch import _branch_sum, default_truncation_radius, phi_sum
from .errors import InputFormatError, PreconditionError
from .logmodel import theorem_divergence_scan
from .hilbert import hilbert_transform_sampled
from .oscillation import bmo_estimate
from .sampled import SampledFunction
from .zeros import load_zero_set, save_zero_set, upper_density_profile
from . import zoo

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_grid(text: str) -> tuple[float, float, int]:
    try:
        t0, h, n = text.split(":")
        return float(t0), float(h), int(n)
    except ValueError:
        raise InputFormatError(f"bad grid spec {text!r}, expected t0:h:n") from None


def _parse_pair(text: str) -> tuple[float, float]:
    try:
        a, b = text.split(":")
        return float(a), float(b)
    except ValueError:
        raise InputFormatError(f"bad range {text!r}, expected min:max") from None


def _parse_floats(text: str | None) -> list[float]:
    try:
        return [float(v) for v in (text or "").split(",") if v]
    except ValueError:
        raise InputFormatError(f"bad list {text!r}") from None


def _parse_ks(text: str | None) -> list[int]:
    ks = _parse_floats(text)
    if not all(k.is_integer() for k in ks):
        raise InputFormatError(f"--K needs integers, got {text!r}")
    return [int(k) for k in ks]


def _load_zeros(path: str):
    """Load plain zero-set CSV/JSON or the offset-form delta variant."""
    with open(path) as fh:
        head = fh.readline()
        fh.seek(0)
        if "delta-log3" not in head:
            return load_zero_set(fh)
        zs = zoo.load_delta_csv(fh).zeros
    if zs is None:
        raise InputFormatError(
            f"{path}: offset-form points carry im=0; export a shifted model"
        )
    return zs


def _grid_template(args: argparse.Namespace) -> SampledFunction:
    if args.grid is None:
        raise InputFormatError("this command needs --grid t0:h:n")
    t0, h, n = _parse_grid(args.grid)
    if n < 1:
        raise InputFormatError(f"grid needs n >= 1 nodes, got {n}")
    return SampledFunction(t0, h, np.zeros(n))


def cmd_density(args: argparse.Namespace) -> int:
    if not args.zeros:
        raise InputFormatError("density needs --zeros PATH")
    radii = _parse_floats(args.radii)
    if not radii:
        raise InputFormatError("density needs --radii r1,r2,...")
    profile = upper_density_profile(_load_zeros(args.zeros), radii)
    lines = ["r,sup_count,density,witness_x"]
    lines += [
        f"{e.r!r},{e.sup_count},{e.density!r},{e.witness!r}" for e in profile.entries
    ]
    write_text(args.out or sys.stdout, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_phi(args: argparse.Namespace) -> int:
    ts = _grid_template(args).grid
    if args.zero:
        vals = _parse_floats(args.zero)
        if len(vals) != 2:
            raise InputFormatError(f"--zero needs X,Y, got {args.zero!r}")
        x, y = vals
        if not (math.isfinite(x) and 0 < y < math.inf):
            raise InputFormatError(
                f"--zero needs a finite X and a finite positive Y, got {args.zero!r}"
            )
        values = _branch_sum(
            np.zeros(ts.size), np.array([x]), np.array([y]), np.ones(1), ts
        )
        lines = ["t,phi"]
        lines += [f"{t!r},{v!r}" for t, v in zip(ts.tolist(), values.tolist())]
    elif args.zeros:
        zs = _load_zeros(args.zeros)
        radius = args.truncation
        if radius is None:
            radius = default_truncation_radius(zs, float(np.abs(ts).max()))
        r = phi_sum(zs, ts, radius)
        lines = ["t,phi_sum,tail_bound"]
        lines += [
            f"{t!r},{v!r},{b!r}"
            for t, v, b in zip(ts.tolist(), r.value.tolist(), r.tail_bound.tolist())
        ]
    else:
        raise InputFormatError("phi needs --zero X,Y or --zeros PATH")
    write_text(args.out or sys.stdout, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_hilbert(args: argparse.Namespace) -> int:
    if args.input:
        f = SampledFunction.from_csv(args.input)
    elif args.const is not None:
        template = _grid_template(args)
        f = template.like(np.full(template.n, args.const))
    else:
        raise InputFormatError("hilbert needs --input PATH or --const C (with --grid)")
    hilbert_transform_sampled(f).to_csv(args.out or sys.stdout)
    return EXIT_OK


def cmd_bmo(args: argparse.Namespace) -> int:
    if not args.input:
        raise InputFormatError("bmo needs --input PATH")
    if not args.lengths:
        raise InputFormatError("bmo needs --lengths min:max")
    lo, hi = _parse_pair(args.lengths)
    rep = bmo_estimate(SampledFunction.from_csv(args.input), lo, hi)
    text = "a,b,mean,oscillation\n" + (
        f"{rep.a!r},{rep.b!r},{rep.mean!r},{rep.oscillation!r}\n"
    )
    write_text(args.out or sys.stdout, text)
    return EXIT_OK


def _build_model(args: argparse.Namespace, k: int) -> zoo.ZooModel:
    name = (args.model or "").lower()
    if name == "sine":
        return zoo.sine_type_model(args.shift, truncation=k)
    if name == "example1":
        window = 500.0 if args.truncation is None else args.truncation
        return zoo.shift_to_strip(zoo.referee_example1(k, window), args.shift)
    if name == "example2":
        return zoo.shift_to_strip(zoo.referee_example2(k), args.shift)
    if name == "cluster":
        return zoo.cluster_model(k, height=args.shift)
    raise InputFormatError(f"unknown model {args.model!r}")


def cmd_zoo(args: argparse.Namespace) -> int:
    k_list = _parse_ks(args.K)
    if not k_list:
        raise InputFormatError("zoo needs --K N")
    model = _build_model(args, k_list[0])
    out = args.out or sys.stdout
    if model.k is not None:
        zoo.write_delta_csv(model, out)
    else:
        save_zero_set(model.zeros, out)
    return EXIT_OK


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    thresholds = _parse_floats(args.thresholds)
    if not all(0 < t < math.inf for t in thresholds) or any(
        b <= a for a, b in zip(thresholds, thresholds[1:])
    ):
        raise InputFormatError(
            f"thresholds must be finite, positive and increasing, got {thresholds}"
        )
    if not args.model:
        raise InputFormatError("verify-theorem needs --model NAME")
    k_list = _parse_ks(args.K)
    if not k_list:
        raise InputFormatError("verify-theorem needs --K k1,k2,...")
    family = [(float(k), _build_model(args, k)) for k in k_list]
    rows = theorem_divergence_scan(family)
    control = theorem_divergence_scan(
        [(200.0, zoo.sine_type_model(1.0, truncation=200))]
    )[0]

    lines = ["K,bmo_lower_bound,witness_lo,witness_hi,window_count,tail_bound"]
    lines += [
        f"{r.label!r},{r.bound!r},{r.witness[0]!r},{r.witness[1]!r},"
        f"{r.window_count},{r.tail_bound!r}"
        for r in rows
    ]
    lines.append(f"# control sine-type (N=200) bound: {control.bound!r}")
    write_text(args.out or sys.stdout, "\n".join(lines) + "\n")

    summary = [
        f"model={args.model} shift={args.shift:g}",
        f"control sine-type bound: {control.bound:.4f}",
    ]
    for thr in thresholds:
        crossed = [r.label for r in rows if r.bound >= thr]
        if crossed:
            summary.append(f"threshold {thr:g} crossed at K={crossed[0]:g}")
        else:
            summary.append(f"threshold {thr:g} not crossed")
    print("\n".join(summary), file=sys.stderr)

    for r in rows:
        if r.tail_bound > 0.01 * max(abs(r.bound), 1e-300):
            print(
                f"truncation too aggressive at K={r.label:g}: "
                f"tail {r.tail_bound:g} vs bound {r.bound:g}",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
    return EXIT_OK


# flag -> add_argument keywords; --out is common to every command
FLAGS = {
    "--zeros": {},
    "--input": {},
    "--grid": {},
    "--radii": {},
    "--truncation": {"type": float},
    "--lengths": {},
    "--thresholds": {},
    "--model": {},
    "--K": {},
    "--shift": {"type": float, "default": 1.0},
    "--zero": {},
    "--const": {"type": float},
}

# command -> (handler, its flags)
COMMANDS = {
    "density": (cmd_density, ["--zeros", "--radii"]),
    "phi": (cmd_phi, ["--zero", "--zeros", "--grid", "--truncation"]),
    "hilbert": (cmd_hilbert, ["--input", "--const", "--grid"]),
    "bmo": (cmd_bmo, ["--input", "--lengths"]),
    "zoo": (cmd_zoo, ["--model", "--K", "--shift", "--truncation"]),
    "verify-theorem": (
        cmd_verify_theorem,
        ["--model", "--K", "--shift", "--truncation", "--thresholds"],
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripzeros",
        description="Zero densities, argument branches, Hilbert transforms "
        "and BMO lower bounds for strip zero sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (InputFormatError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"numeric precondition failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
