#!/usr/bin/env python3
"""Reproduce the global-error digit tables for all three sweep counts.

Runs the 2-D problem at beta = 0 and beta = 1 over N = 24..384 and the 3-D
problem at beta = 0 over N = 24, 48, with the step tied to the mesh as
tau = q*h.  Each table row shows, per scheme, the correct-digit count
delta2 = -log10(eps2) with the observed order p in parentheses (p compares a
level against the next, exactly-halved one).

--full appends the expensive refinement levels (N = 768 in 2-D, N = 96 in
3-D); expect several extra minutes.  --out DIR writes one file per table
next to printing.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from amfrk import SCHEME_IDS, StudyConfig, run_convergence


def combined_table(dim, beta, grids, fmt, epsilon=0.1):
    """One table over all schemes: rows are grid levels, columns schemes."""
    per_scheme = {}
    for sid in SCHEME_IDS:
        cfg = StudyConfig(dim=dim, beta=beta, scheme_id=sid, grid_ns=grids)
        per_scheme[sid] = run_convergence(cfg)

    if fmt == "csv":
        lines = ["scheme,n,h,tau,eps2,delta2,p"]
        for sid in SCHEME_IDS:
            for r in per_scheme[sid]:
                p = f"{r.p:.6g}" if r.p is not None else ""
                lines.append(
                    f"{sid},{r.n_cells},{r.h:.6g},{r.tau:.6g},"
                    f"{r.eps2:.6g},{r.delta2:.6g},{p}"
                )
        return "\n".join(lines) + "\n"

    header = "| h | " + " | ".join(SCHEME_IDS) + " |"
    rule = "| --- |" + " --- |" * len(SCHEME_IDS)
    lines = [header, rule]
    for i, n in enumerate(grids):
        cells = []
        for sid in SCHEME_IDS:
            r = per_scheme[sid][i]
            p = f" ({r.p:.2f})" if r.p is not None else ""
            cells.append(f"{r.delta2:.2f}{p}")
        lines.append(f"| 1/{n} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="append the N=768 (2-D) and N=96 (3-D) levels")
    ap.add_argument("--format", choices=("md", "csv"), default="md")
    ap.add_argument("--out", metavar="DIR", help="also write one file per table")
    args = ap.parse_args(argv)

    grids_2d = (24, 48, 96, 192, 384) + ((768,) if args.full else ())
    grids_3d = (24, 48) + ((96,) if args.full else ())
    cases = [
        ("2-D, beta=0", "table_2d_beta0", 2, 0.0, grids_2d),
        ("2-D, beta=1", "table_2d_beta1", 2, 1.0, grids_2d),
        ("3-D, beta=0", "table_3d_beta0", 3, 0.0, grids_3d),
    ]

    out_dir = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    for title, stem, dim, beta, grids in cases:
        t0 = time.perf_counter()
        text = combined_table(dim, beta, grids, args.format)
        elapsed = time.perf_counter() - t0
        print(f"# {title}  (delta2 with p in parentheses; {elapsed:.1f}s)")
        print(text)
        if out_dir is not None:
            ext = "csv" if args.format == "csv" else "md"
            path = out_dir / f"{stem}.{ext}"
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
