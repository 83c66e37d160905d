"""The bits of a fixed list of solves, one line each, and a digest of all.

Usage:
    PYTHONPATH=src python tools/bits_census.py

Each line names a triple (m, q, N) and gives ``float.hex`` of beta*, xi0
and both bracket ends, the matching's residual evaluations (nfev), the
shooting's classifications (iterations) and a sha256 of the stored
profile (grid, F and F'); a solve that fails gives its error class.  The
last line is a sha256 over all the lines before it.  Two source trees
that print the same output solve the list to the same bits; compare them
with ``diff`` of the outputs, each run with its own ``src`` on
PYTHONPATH.  The list: the four reference cases, three further ones,
the levels of the benchmark's workloads (read from
``perfbench/workloads.py``), launches near the super-critical floor and
one triple that fails.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import eternalprofile
from eternalprofile.errors import ProfileError

ROOT = Path(__file__).resolve().parents[1]

REFERENCE = [(2.0, 0.5, 1), (2.0, 0.5, 3), (1.5, 0.5, 2), (1.2, 0.3, 1),
             (2.0, 0.7, 1), (1.1, 0.1, 1), (1.3, 0.7, 1)]
NEAR_FLOOR = [(1.6, 0.5, 1), (1.5, 0.7, 1), (2.0, 0.1, 1), (1.632, 0.5, 2),
              (1.644, 0.5, 2), (1.471, 0.652, 1)]
FAILING = [(3.0, 0.5, 1)]


def benchmark_levels():
    """The level triples of every benchmark workload, in its order."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT))
    return [t for make in WORKLOADS.values() for t in make(0, ROOT).levels()]


def triples():
    return REFERENCE + benchmark_levels() + NEAR_FLOOR + FAILING


def line(m: float, q: float, N: int) -> str:
    """One census line for the solve of (m, q, N)."""
    head = f"({m!r}, {q!r}, {N})"
    try:
        r = eternalprofile.solve(eternalprofile.make_params(m, q, N))
    except ProfileError as err:
        return f"{head} {type(err).__name__}"
    prof = r.final_profile
    h = hashlib.sha256()
    for a in (prof.grid, prof.F_values, prof.Fprime_values):
        h.update(a.tobytes())
    return (f"{head} beta={r.beta_star.hex()} xi0={r.match.xi0.hex()} "
            f"lo={r.bracket_lo.hex()} hi={r.bracket_hi.hex()} "
            f"nfev={r.match.nfev} iterations={r.iterations} "
            f"profile={h.hexdigest()}")


def census(cases):
    """The census lines of ``cases``, then the sha256 line over them."""
    lines = [line(*t) for t in cases]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return lines + [f"sha256 {digest}"]


def main():
    for text in census(triples()):
        print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
