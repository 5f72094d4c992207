"""Regenerate the Korobov multipliers of the Genz rectangle kernel.

`lassodist.distribution._KOROBOV` maps (n, dim) to the multiplier a of the
rank-1 lattice x_i = frac(i z / n), z = (1, a, a^2, ..., a^(dim-1)) mod n.
For each n = 2^6 .. 2^16 and dim = 2 .. 5, a is the odd multiplier that
minimises the unweighted P2 figure of merit (Sloan & Joe 1994)

    P2(z) = -1 + (1/n) sum_i prod_j (1 + 2 pi^2 B2(frac(i z_j / n))),

with B2(x) = x^2 - x + 1/6. B2 is symmetric about 1/2, so a and n - a give
the same P2 and the search runs over the odd a below n/2. Multipliers whose
P2 lies within a relative 1e-9 of the minimum count as ties, and the smallest
of them is taken, so the table does not depend on summation order. The full
search covers every candidate and takes about 1.5 minutes on one core.

    python3 scripts/korobov_table.py           # print the table literal
    python3 scripts/korobov_table.py --check   # compare with the committed table
"""

import argparse
import sys

import numpy as np

MIN_LOG2_N, MAX_LOG2_N = 6, 16
DIMS = (2, 3, 4, 5)
_TIE = 1e-9
# candidates scored at once: a (batch, n) index array of at most 8 MB
_BATCH_POINTS = 2**20


def p2_by_dim(n, multipliers, max_dim):
    """P2 of the Korobov lattices (n, a) for each a, at dims 1..max_dim: shape (len(a), max_dim)."""
    x = np.arange(n) / n
    factor = 1.0 + 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)
    i = np.arange(n, dtype=np.int64)
    a = np.asarray(multipliers, dtype=np.int64)
    z = np.ones_like(a)
    prod = np.ones((a.size, n))
    out = np.empty((a.size, max_dim))
    for j in range(max_dim):
        prod *= factor[(i[None, :] * z[:, None]) & (n - 1)]
        out[:, j] = prod.mean(axis=1) - 1.0
        z = (z * a) & (n - 1)
    return out


def search(n, dims=DIMS):
    """{dim: the smallest odd a < n/2 whose P2 is within _TIE of the minimum}."""
    candidates = np.arange(1, n // 2, 2)
    batch = max(1, _BATCH_POINTS // n)
    scores = np.concatenate([
        p2_by_dim(n, candidates[s:s + batch], max(dims))
        for s in range(0, candidates.size, batch)
    ])
    best = {}
    for dim in dims:
        col = scores[:, dim - 1]
        best[dim] = int(candidates[np.flatnonzero(col <= col.min() * (1.0 + _TIE))[0]])
    return best


def table(max_log2_n=MAX_LOG2_N):
    return {
        (2**e, dim): a
        for e in range(MIN_LOG2_N, max_log2_n + 1)
        for dim, a in search(2**e).items()
    }


def render(tab):
    lines = ["_KOROBOV = {"]
    for n in sorted({n for n, _ in tab}):
        entries = ", ".join(f"({n}, {dim}): {tab[n, dim]}" for dim in DIMS if (n, dim) in tab)
        lines.append(f"    {entries},")
    lines.append("}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with lassodist.distribution._KOROBOV; exit 1 on any difference")
    args = ap.parse_args(argv)
    tab = table()
    if not args.check:
        print(render(tab))
        return 0
    from lassodist.distribution import _KOROBOV

    diff = [(key, a, _KOROBOV.get(key)) for key, a in tab.items() if _KOROBOV.get(key) != a]
    for (n, dim), a, committed in diff:
        print(f"n={n} dim={dim}: search gives {a}, table has {committed}")
    print(f"{len(tab) - len(diff)} of {len(tab)} entries match")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
