"""The k! brute force for reverse-lex maximal exponent tuples.

This was `bounds.select_beta` before the ranking search replaced it; it stays
here as the reference the search is tested against.  For each permutation
sigma of the k variables, the permuted tuple carries alpha_i at position
sigma[i], and the reverse-lex maximum compares the last position first.
"""

from __future__ import annotations

import itertools


def reference_select_beta(index_set, k: int) -> set[tuple[int, ...]]:
    tuples = {tuple(t) for t in index_set}
    if not tuples:
        raise ValueError("empty exponent set")
    out = set()
    for sigma in itertools.permutations(range(k)):
        def rlex_key(t, sigma=sigma):
            p = [0] * k
            for i, pos in enumerate(sigma):
                p[pos] = t[i]
            return tuple(reversed(p))

        out.add(max(tuples, key=rlex_key))
    return out
