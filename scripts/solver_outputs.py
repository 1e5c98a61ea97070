"""Solve a fixed, seeded set of spectral-norm problems and write every result
to OUTFILE, one line per solve.

Each line names the solver setting, the shape and the member, then holds the
``repr`` of ``(value, iterations, converged, residual)`` from
``elemsparse.spectral._lanczos_norm``, run on the package in this checkout's
``src``. The lines of the last block, setting ``dispatch``, come from
``elemsparse.spectral._spectral_norm`` instead and name the path it took:
``dense`` (a Gram eigensolve, which reports 0 steps) or ``lanczos``. A solve
that raises writes the exception's type and message instead, and a solve
that warns appends the warning categories. Two checkouts are compared by
running their copies of this script and diffing the two files:

    python3 scripts/solver_outputs.py /tmp/before.txt   # in one checkout
    python3 scripts/solver_outputs.py /tmp/after.txt    # in the other
    diff /tmp/before.txt /tmp/after.txt

The set: 13 shapes from 1x1 to 120x40, tall and wide, under four settings
(the defaults, ``_TOL = 1e-300`` so every solve runs to min(m, n), and
``_MAX_STEPS`` of 5 and 3). Per shape and setting, eight members (zero,
single entry, rank one, two gaussian, power law, rank deficient and a
gaussian scaled by 1e-170) and three extreme-scale gaussian members (scaled
by 1e160, -1e160 and 1e-165) are each solved on their own. That is
13 * 4 * 11 = 572 solves. The dispatch block solves the same members under
the default settings, plus those of one 301x301 shape, the smallest square
shape that takes Lanczos, so 14 * 11 = 154 solves more.
"""

import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from elemsparse import spectral  # noqa: E402

SHAPES = [(1, 1), (1, 6), (6, 1), (2, 3), (3, 2), (4, 4), (9, 6), (6, 9), (20, 13), (13, 20), (33, 32),
          (120, 40), (40, 120)]

# Shapes of the dispatch block: every shape of SHAPES takes the dense path,
# and 301x301 takes Lanczos.
DISPATCH_SHAPES = [*SHAPES, (301, 301)]

SETTINGS = [
    ("default", {}),
    ("tol-1e-300", {"_TOL": 1e-300}),
    ("max-steps-5", {"_MAX_STEPS": 5}),
    ("max-steps-3", {"_MAX_STEPS": 3}),
]


def _members(m: int, n: int) -> dict:
    """The eight members of one shape, seeded by the shape alone."""
    rng = np.random.default_rng(1000 * m + n)
    single = np.zeros((m, n))
    single[m // 2, n // 3] = 2.5
    rank = max(1, min(m, n) // 3)
    signs = rng.choice([-1.0, 1.0], size=(m, n))
    return {
        "zero": np.zeros((m, n)),
        "single": single,
        "rank-one": np.outer(rng.standard_normal(m), rng.standard_normal(n)),
        "gaussian-a": rng.standard_normal((m, n)),
        "gaussian-b": rng.standard_normal((m, n)),
        "power-law": signs * (1.0 - rng.random((m, n))) ** (-1.0 / 1.5),
        "rank-deficient": rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)),
        "tiny-1e-170": 1e-170 * rng.standard_normal((m, n)),
    }


def _extreme(m: int, n: int) -> dict:
    g = np.random.default_rng(7000 * m + n).standard_normal((m, n))
    return {"huge-1e160": 1e160 * g, "huge-neg-1e160": -1e160 * g, "tiny-1e-165": 1e-165 * g}


def _lanczos_line(est) -> str:
    return repr(tuple(est))


def _dispatch_line(est) -> str:
    return f"{'dense' if est.iterations == 0 else 'lanczos'} {tuple(est)!r}"


def _solve(member: np.ndarray, solve=spectral._lanczos_norm, line=_lanczos_line) -> str:
    """One line body for member, solved on a copy, since the solver rescales
    its operand in place."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = line(solve(member.copy()))
        except Exception as exc:  # the line records it, so a checkout that raises still diffs
            result = f"raised {type(exc).__name__}: {exc}"
    if caught:
        result += f" warned {','.join(sorted({w.category.__name__ for w in caught}))}"
    return result


def _all_members(m: int, n: int) -> dict:
    return {**_members(m, n), **_extreme(m, n)}


def main() -> None:
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUTFILE")
    lines = []
    defaults = {name: getattr(spectral, name) for name in ("_TOL", "_MAX_STEPS")}
    try:
        for setting, values in SETTINGS:
            for name, value in {**defaults, **values}.items():
                setattr(spectral, name, value)
            for m, n in SHAPES:
                for name, member in _all_members(m, n).items():
                    lines.append(f"{setting} {m}x{n} {name}: {_solve(member)}\n")
    finally:
        for name, value in defaults.items():
            setattr(spectral, name, value)
    for m, n in DISPATCH_SHAPES:
        for name, member in _all_members(m, n).items():
            lines.append(f"dispatch {m}x{n} {name}: {_solve(member, spectral._spectral_norm, _dispatch_line)}\n")
    Path(sys.argv[1]).write_text("".join(lines))


if __name__ == "__main__":
    main()
