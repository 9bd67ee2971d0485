"""Command-line front end: convergence studies, single runs, stability scans,
and scheme verification.

Exit status: 0 on success, 1 on numerical failure (vanishing pivot, a state
that stops being finite, singular solve, verification residual past
tolerance), 2 on usage errors (argparse rejections, invalid parameter
combinations), 141 (128 + SIGPIPE) when the reader of stdout closes it early.

A flat key=value config file (one pair per line, '#' comments) can seed any
subcommand's options via --config. Each pair is read as the flag
``--key=value`` (``_`` in a key read as ``-``) and placed ahead of the
command line's own flags, so explicit flags win over the file, and an
unknown key (a flag's prefix included: flags are spelled out in full), a
nested ``config`` key or a bad value exits 2. On the command line a value
such as ``-1e-3``, which argparse would take for a flag, goes in the same
one-token form: ``--beta=-1e-3``.
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
import os
import sys

import numpy as np

from .harness import (
    StudyConfig,
    check_memory,
    check_study,
    render_table,
    run_convergence,
    run_level,
)
from .integrator import NonFiniteStateError
from .splitops import FactorSolveError, GridSpec
from .stability import _radii, check_scan, wedge_stability_scan
from .tableau import (
    SCHEME_IDS,
    AmfScheme,
    amf_scheme,
    radau2a_tableau,
    scheme_sweeps,
    verify_scheme_conditions,
)

_VERIFY_TOL = 1e-12


def _config_flags(path: str) -> list[str]:
    """The config file's pairs as ``--key=value`` tokens, in file order."""
    flags = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip().replace("_", "-")
            if not sep or not key:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another")
            flags.append(f"--{key}={value.strip()}")
    return flags


def _scheme(text: str) -> AmfScheme:
    """A --scheme value: the scheme of that id, read by ``scheme_sweeps``."""
    try:
        return amf_scheme(scheme_sweeps(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scheme_list(text: str) -> tuple[AmfScheme, ...]:
    """A converge --scheme value: scheme ids, comma separated, each once."""
    schemes = tuple(_scheme(tok) for tok in text.split(","))
    if len({scheme.name for scheme in schemes}) < len(schemes):
        raise argparse.ArgumentTypeError(f"a scheme is listed twice in {text!r}")
    return schemes


def _parse_grids(text: str) -> tuple[int, ...]:
    grids = tuple(int(tok) for tok in text.split(",") if tok.strip())
    if not grids:
        raise argparse.ArgumentTypeError(f"no grid size in {text!r}")
    return grids


def _cmd_converge(args) -> int:
    cfgs = [StudyConfig(dim=args.dim, beta=args.beta, scheme_id=scheme.name, grid_ns=args.grids,
                        epsilon=args.eps, t_end=args.t_end) for scheme in args.scheme]
    for cfg in cfgs:  # every study is checked before the first one runs
        check_study(cfg)
    # --out is opened before the first study, as a shell redirect would be
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as fh:
        text = render_table({cfg.scheme_id: run_convergence(cfg) for cfg in cfgs}, args.format)
        if fh is not None:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_integrate(args) -> int:
    GridSpec(args.dim, args.n)  # its N >= 2 rule, before tau = ratio / n
    ratio = args.tau_ratio if args.tau_ratio is not None else float(args.scheme.q)
    check_memory(args.dim, args.n, args.scheme.q)  # before the problem's profiles are built
    record, row = run_level(args.dim, args.n, args.beta, args.eps, args.scheme,
                            ratio / args.n, args.t_end)
    sys.stdout.write(
        f"t={record.t:g} n={args.n} scheme={args.scheme.name} "
        f"eps2={row.eps2:.6g} delta2={row.delta2:.6g}\n"
    )
    return 0


def _cmd_stability(args) -> int:
    keep = args.csv is not None
    check_scan(args.d, args.theta, args.radii, keep)  # before the radii are made or --csv opened
    # --csv is opened before the scan, as a shell redirect would be
    with open(args.csv, "w", encoding="utf-8") if keep else nullcontext() as fh:
        radii = None if args.radii is None else _radii(args.radii)
        result = wedge_stability_scan(
            args.scheme, radau2a_tableau(), args.d, args.theta, radii=radii, keep_samples=keep
        )
        sys.stdout.write(
            f"scheme={args.scheme.name} d={args.d} theta={args.theta:g} "
            f"samples={result.n_samples} excluded={result.n_excluded}\n"
            f"max |R| = {result.max_modulus:.15g} at z_k = "
            + " ".join(f"{v:.6g}" for v in result.argmax.parts)
            + "\n"
        )
        for key in sorted(result.per_ray):
            label = ",".join(f"{ang:+.6g}" for ang in key)
            sys.stdout.write(f"  rays({label}): max |R| = {result.per_ray[key]:.15g}\n")
        if keep:
            fh.writelines(line + "\n" for line in result.csv_rows())
    if keep:
        sys.stdout.write(f"wrote {result.n_samples} samples to {args.csv}\n")
    return 0


def _cmd_verify(args) -> int:
    residuals = verify_scheme_conditions(args.scheme, radau2a_tableau())
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
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH")
    shared = argparse.ArgumentParser(add_help=False, parents=[config])
    shared.add_argument("--scheme", type=_scheme, metavar="{" + ",".join(SCHEME_IDS) + "}",
                        required=True)
    problem = argparse.ArgumentParser(add_help=False)
    problem.add_argument("--dim", type=int, choices=(2, 3), required=True)
    problem.add_argument("--beta", type=float, required=True)
    problem.add_argument("--eps", type=float, default=0.1)
    problem.add_argument("--t-end", type=float, default=1.0)

    pc = sub.add_parser("converge", parents=[problem, config], allow_abbrev=False,
                        help="run a convergence study table, schemes side by side")
    pc.add_argument("--scheme", type=_scheme_list, metavar="ID[,ID...]", required=True)
    pc.add_argument("--grids", type=_parse_grids, metavar="N1,N2,...", required=True,
                    help="cells per axis, strictly increasing")
    pc.add_argument("--format", choices=("csv", "md", "markdown"), default="csv")
    pc.add_argument("--out", metavar="PATH")
    pc.set_defaults(func=_cmd_converge)

    pi = sub.add_parser("integrate", parents=[problem, shared], allow_abbrev=False,
                        help="single run, print final error")
    pi.add_argument("--n", type=int, required=True)
    pi.add_argument("--tau-ratio", type=float)
    pi.set_defaults(func=_cmd_integrate)

    ps = sub.add_parser("stability", parents=[shared], allow_abbrev=False,
                        help="wedge scan of |R_q|")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--theta", type=float, required=True)
    ps.add_argument("--radii", type=int, help="number of log-spaced radii")
    ps.add_argument("--csv", metavar="PATH", help="write sample rows")
    ps.set_defaults(func=_cmd_stability)

    pv = sub.add_parser("verify", parents=[shared], allow_abbrev=False,
                        help="check scheme-defining residuals")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="amfrk", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    try:  # the file's flags go right after the subcommand, so the user's own win
        flags = _config_flags(path) if path is not None else []
        args = _build_parser().parse_args(argv[:1] + flags + argv[1:])
        return args.func(args)
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
