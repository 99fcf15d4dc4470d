"""Command-line interface: offline analyses emitting CSV reports.

Exit codes: 0 success, 2 input error, 3 numeric-precondition failure.
All outputs are plain CSV (plot-ready data, no rendering).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import astuple

import numpy as np

from ._numutil import write_csv
from .argbranch import phi_sum
from .errors import InputFormatError, PreconditionError
from .logmodel import theorem_divergence_scan
from .hilbert import hilbert_transform_sampled
from .oscillation import bmo_estimate
from .sampled import SampledFunction
from .zeros import ZeroSet, load_zero_set, save_zero_set, upper_density_profile
from . import zoo

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _parse_floats(
    text: str | None, what: str, sep: str = ",", count: int | None = None
) -> list[float]:
    """The finite numbers in ``text``, split at ``sep``; every number a flag carries.

    A number that does not parse or is not finite, or a list of other than
    ``count`` numbers when ``count`` is given, raises ``InputFormatError``
    with ``what`` and the text.
    """
    try:
        vals = [float(v) for v in text.split(sep)] if text else []
    except ValueError:
        vals = [math.nan]
    if not all(map(math.isfinite, vals)) or count not in (None, len(vals)):
        raise InputFormatError(f"{what}, got {text!r}")
    return vals


def _parse_number(text: str, flag: str) -> float:
    return _parse_floats(text, f"{flag} needs a finite number", count=1)[0]


def _parse_increasing(text: str | None, what: str) -> list[float]:
    """The finite numbers in ``text``, which must be positive and strictly increasing."""
    vals = _parse_floats(text, what)
    if not all(v > 0 for v in vals) or any(b <= a for a, b in zip(vals, vals[1:])):
        raise InputFormatError(f"{what}, got {text!r}")
    return vals


def _parse_ks(text: str | None) -> list[int]:
    """The integers in ``text``: a decimal integer exactly, else by the float rule."""
    ks = _parse_floats(text, "--K needs integers")
    if not all(k.is_integer() for k in ks):
        raise InputFormatError(f"--K needs integers, got {text!r}")
    exact = []
    for item, k in zip((text or "").split(","), ks):
        try:
            exact.append(int(item))
        except ValueError:  # 2.0 or 1e3: an integral float
            exact.append(int(k))
    return exact


def _grid_template(args: argparse.Namespace) -> SampledFunction:
    if args.grid is None:
        raise InputFormatError("this command needs --grid t0:h:n")
    what = "--grid needs t0:h:n: finite origin t0 and step h, integer n >= 1"
    t0, h, n = _parse_floats(args.grid, what, ":", count=3)
    if not (n >= 1 and n.is_integer()):
        raise InputFormatError(f"{what}, got {args.grid!r}")
    return SampledFunction(t0, h, np.zeros(int(n)))


def cmd_density(args: argparse.Namespace) -> int:
    if not args.zeros:
        raise InputFormatError("density needs --zeros PATH")
    radii = _parse_increasing(
        args.radii, "--radii needs finite, positive, increasing numbers"
    )
    if not radii:
        raise InputFormatError("density needs --radii r1,r2,...")
    profile = upper_density_profile(load_zero_set(args.zeros), radii)
    write_csv(
        args.out,
        "r,sup_count,density,witness_x\n",
        *zip(*map(astuple, profile.entries)),
    )
    return EXIT_OK


def cmd_phi(args: argparse.Namespace) -> int:
    ts = _grid_template(args).grid
    radius = None
    if args.truncation is not None:
        radius = _parse_number(args.truncation, "--truncation")
    if args.zero:
        if args.zeros:
            raise InputFormatError("--zero conflicts with --zeros; give one of them")
        if radius is not None:
            raise InputFormatError(
                "--zero conflicts with --truncation, which only --zeros takes"
            )
        what = "--zero needs a finite X and a finite positive Y"
        x, y = _parse_floats(args.zero, what, count=2)
        if not y > 0:
            raise InputFormatError(f"{what}, got {args.zero!r}")
        header, columns = "t,phi\n", (ts, phi_sum(ZeroSet([x], [y]), ts, None).value)
    elif args.zeros:
        r = phi_sum(load_zero_set(args.zeros), ts, radius)
        header, columns = "t,phi_sum,tail_bound\n", (ts, r.value, r.tail_bound)
    else:
        raise InputFormatError("phi needs --zero X,Y or --zeros PATH")
    write_csv(args.out, header, *columns)
    return EXIT_OK


def cmd_hilbert(args: argparse.Namespace) -> int:
    if args.input:
        if args.const is not None or args.grid is not None:
            raise InputFormatError(
                "--input conflicts with --const and --grid; give the file or a constant"
            )
        f = SampledFunction.from_csv(args.input)
    elif args.const is not None:
        template = _grid_template(args)
        f = template.like(np.full(template.n, _parse_number(args.const, "--const")))
    else:
        raise InputFormatError("hilbert needs --input PATH or --const C (with --grid)")
    hilbert_transform_sampled(f).to_csv(args.out)
    return EXIT_OK


def cmd_bmo(args: argparse.Namespace) -> int:
    if not args.input:
        raise InputFormatError("bmo needs --input PATH")
    if not args.lengths:
        raise InputFormatError("bmo needs --lengths min:max")
    lo, hi = _parse_floats(args.lengths, "--lengths needs finite min:max", ":", count=2)
    rep = bmo_estimate(SampledFunction.from_csv(args.input), lo, hi)
    write_csv(
        args.out,
        "a,b,mean,oscillation\n",
        [rep.a], [rep.b], [rep.mean], [rep.oscillation],
    )
    return EXIT_OK


def _build_model(args: argparse.Namespace, k: int) -> zoo.ZooModel:
    shift = _parse_number(args.shift, "--shift")
    name = (args.model or "").lower()
    window = 500.0
    if args.truncation is not None:
        if name != "example1":
            raise InputFormatError(
                "--truncation is the example1 window only; "
                f"model {args.model!r} takes none"
            )
        window = _parse_number(args.truncation, "--truncation")
    if name == "sine":
        return zoo.sine_type_model(shift, truncation=k)
    if name == "example1":
        return zoo.shift_to_strip(zoo.referee_example1(k, window), shift)
    if name == "example2":
        return zoo.shift_to_strip(zoo.referee_example2(k), shift)
    if name == "cluster":
        return zoo.cluster_model(k, height=shift)
    raise InputFormatError(f"unknown model {args.model!r}")


def cmd_zoo(args: argparse.Namespace) -> int:
    k_list = _parse_ks(args.K)
    if len(k_list) != 1:
        raise InputFormatError(f"zoo takes one K (--K N), got {args.K!r}")
    save_zero_set(_build_model(args, k_list[0]).zeros, args.out)
    return EXIT_OK


def cmd_verify_theorem(args: argparse.Namespace) -> int:
    thresholds = _parse_increasing(
        args.thresholds, "thresholds must be finite, positive and increasing"
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

    table = [(r.label, r.bound, *r.witness, r.window_count, r.tail_bound) for r in rows]
    write_csv(
        args.out,
        "K,bmo_lower_bound,witness_lo,witness_hi,window_count,tail_bound\n",
        *zip(*table),
        footer=f"# control sine-type (N=200) bound: {control.bound!r}\n",
    )

    summary = [
        f"model={args.model} shift={args.shift}",
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
            p.add_argument(flag, default="1" if flag == "--shift" else None)
        p.add_argument("--out", default=sys.stdout)
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
