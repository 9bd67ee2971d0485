"""Command-line front end: convergence studies, single runs, stability scans,
and scheme verification.

Exit status: 0 on success, 1 on numerical failure (vanishing pivot, a state
that stops being finite, singular solve, verification residual past
tolerance), 2 on usage errors (argparse rejections, invalid parameter
combinations), 141 (128 + SIGPIPE) when the reader of stdout closes it early.

A flat key=value config file (one pair per line, '#' comments) can seed any
subcommand's options via --config; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .harness import (
    StudyConfig,
    correct_digits,
    render_table,
    run_convergence,
    weighted_norm,
)
from .integrator import NonFiniteStateError, integrate
from .problems import build_problem
from .splitops import FactorSolveError
from .stability import wedge_stability_scan
from .tableau import (
    SCHEME_IDS,
    amf_scheme,
    radau2a_tableau,
    scheme_sweeps,
    verify_scheme_conditions,
)

_VERIFY_TOL = 1e-12


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, casts: dict[str, object]) -> None:
    """Fill still-unset options (None) from the config file, casting values."""
    if getattr(args, "config", None) is None:
        return
    file_values = _read_config(args.config)
    for key, cast in casts.items():
        if getattr(args, key, None) is None and key in file_values:
            setattr(args, key, cast(file_values[key]))


def _require(args: argparse.Namespace, names: list[str], parser) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        parser.error(
            "missing required option(s): "
            + ", ".join("--" + n.replace("_", "-") for n in missing)
        )


def _scheme_id(text: str) -> str:
    """A --scheme value read as ``scheme_sweeps`` reads it: case and
    surrounding blanks are ignored."""
    return text.strip().lower()


def _parse_grids(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"bad --grids value {text!r}: {exc}") from None


def _cmd_converge(args, parser) -> int:
    _merge_config(
        args,
        {
            "dim": int,
            "beta": float,
            "eps": float,
            "scheme": str,
            "grids": _parse_grids,
            "format": str,
            "out": str,
            "t_end": float,
        },
    )
    _require(args, ["dim", "beta", "scheme", "grids"], parser)
    if isinstance(args.grids, str):
        args.grids = _parse_grids(args.grids)
    cfg = StudyConfig(
        dim=args.dim,
        beta=args.beta,
        scheme_id=args.scheme,
        grid_ns=tuple(args.grids),
        epsilon=args.eps if args.eps is not None else 0.1,
        t_end=args.t_end if args.t_end is not None else 1.0,
    )
    fmt = args.format if args.format is not None else "csv"
    text = render_table(run_convergence(cfg), fmt)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_integrate(args, parser) -> int:
    _merge_config(
        args,
        {
            "dim": int,
            "beta": float,
            "eps": float,
            "scheme": str,
            "n": int,
            "tau_ratio": float,
            "t_end": float,
        },
    )
    _require(args, ["dim", "beta", "scheme", "n"], parser)
    q = scheme_sweeps(args.scheme)
    ratio = args.tau_ratio if args.tau_ratio is not None else float(q)
    eps = args.eps if args.eps is not None else 0.1
    t_end = args.t_end if args.t_end is not None else 1.0
    problem = build_problem(args.dim, args.n, args.beta, eps)
    scheme = amf_scheme(q)
    tab = radau2a_tableau()
    record = integrate(problem, scheme, tab, ratio / args.n, t_end)
    err = problem.exact(t_end) - record.y
    eps2 = weighted_norm(err, problem.op.grid)
    sys.stdout.write(
        f"t={record.t:g} n={args.n} scheme={scheme.name} "
        f"eps2={eps2:.6g} delta2={correct_digits(eps2):.6g}\n"
    )
    return 0


def _cmd_stability(args, parser) -> int:
    _merge_config(
        args,
        {"scheme": str, "d": int, "theta": float, "radii": int, "csv": str},
    )
    _require(args, ["scheme", "d", "theta"], parser)
    scheme = amf_scheme(scheme_sweeps(args.scheme))
    tab = radau2a_tableau()
    radii = None
    if args.radii is not None:
        if args.radii < 1:
            parser.error(f"--radii must be positive, got {args.radii}")
        radii = np.logspace(-3.0, 6.0, args.radii)
    keep = args.csv is not None
    result = wedge_stability_scan(
        scheme, tab, args.d, args.theta, radii=radii, keep_samples=keep
    )
    sys.stdout.write(
        f"scheme={scheme.name} d={args.d} theta={args.theta:g} "
        f"samples={result.n_samples} excluded={result.n_excluded}\n"
        f"max |R| = {result.max_modulus:.15g} at z_k = "
        + " ".join(f"{v:.6g}" for v in result.argmax.parts)
        + "\n"
    )
    for key in sorted(result.per_ray):
        label = ",".join(f"{ang:+.6g}" for ang in key)
        sys.stdout.write(f"  rays({label}): max |R| = {result.per_ray[key]:.15g}\n")
    if keep:
        with open(args.csv, "w", encoding="utf-8") as fh:
            for line in result.csv_rows():
                fh.write(line + "\n")
        sys.stdout.write(f"wrote {result.n_samples} samples to {args.csv}\n")
    return 0


def _cmd_verify(args, parser) -> int:
    _merge_config(args, {"scheme": str})
    _require(args, ["scheme"], parser)
    scheme = amf_scheme(scheme_sweeps(args.scheme))
    tab = radau2a_tableau()
    residuals = verify_scheme_conditions(scheme, tab)
    worst = 0.0
    for name in sorted(residuals):
        value = residuals[name]
        worst = max(worst, value)
        sys.stdout.write(f"{name}: {value:.3e}\n")
    if worst > _VERIFY_TOL:
        sys.stdout.write(f"FAIL: worst residual {worst:.3e} > {_VERIFY_TOL:g}\n")
        return 1
    sys.stdout.write(f"ok: worst residual {worst:.3e} <= {_VERIFY_TOL:g}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amfrk",
        description="Factored-sweep implicit Runge-Kutta tools for split "
        "diffusion problems",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pc = sub.add_parser("converge", help="run a convergence study table")
    pc.add_argument("--dim", type=int, choices=(2, 3))
    pc.add_argument("--beta", type=float)
    pc.add_argument("--eps", type=float)
    pc.add_argument("--scheme", type=_scheme_id, choices=SCHEME_IDS)
    pc.add_argument("--grids", type=_parse_grids, metavar="N1,N2,...")
    pc.add_argument("--format", choices=("csv", "md", "markdown"))
    pc.add_argument("--out", metavar="PATH")
    pc.add_argument("--t-end", dest="t_end", type=float)
    pc.add_argument("--config", metavar="PATH")
    pc.set_defaults(func=_cmd_converge)

    pi = sub.add_parser("integrate", help="single run, print final error")
    pi.add_argument("--dim", type=int, choices=(2, 3))
    pi.add_argument("--beta", type=float)
    pi.add_argument("--eps", type=float)
    pi.add_argument("--scheme", type=_scheme_id, choices=SCHEME_IDS)
    pi.add_argument("--n", type=int)
    pi.add_argument("--tau-ratio", dest="tau_ratio", type=float)
    pi.add_argument("--t-end", dest="t_end", type=float)
    pi.add_argument("--config", metavar="PATH")
    pi.set_defaults(func=_cmd_integrate)

    ps = sub.add_parser("stability", help="wedge scan of |R_q|")
    ps.add_argument("--scheme", type=_scheme_id, choices=SCHEME_IDS)
    ps.add_argument("--d", type=int)
    ps.add_argument("--theta", type=float)
    ps.add_argument("--radii", type=int, help="number of log-spaced radii")
    ps.add_argument("--csv", metavar="PATH", help="write sample rows")
    ps.add_argument("--config", metavar="PATH")
    ps.set_defaults(func=_cmd_stability)

    pv = sub.add_parser("verify", help="check scheme-defining residuals")
    pv.add_argument("--scheme", type=_scheme_id, choices=SCHEME_IDS)
    pv.add_argument("--config", metavar="PATH")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (FactorSolveError, NonFiniteStateError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    except BrokenPipeError:  # no more output is read: end quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
