"""Linear algebra over GF(2) on integer bitmasks.

Vectors are Python integers read as little-endian bit vectors (bit i is
component i), so XOR is vector addition and AND-plus-popcount is the dot
product. Arbitrary widths are supported since Python integers are unbounded.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = [
    "mask",
    "pack",
    "permute",
    "row_reduce",
    "rank",
    "reduce_mod",
    "span",
]


def mask(components: Iterable[int]) -> int:
    """Bit vector with a one at each given component, e.g. a spin set."""
    m = 0
    for c in components:
        m |= 1 << c
    return m


def pack(v: int, components: Iterable[int]) -> int:
    """The bits of v at the given components, packed in order, least significant first."""
    return sum(((v >> c) & 1) << i for i, c in enumerate(components))


def permute(v: int, targets) -> int:
    """The bits of v moved by a permutation: bit i goes to bit ``targets[i]``."""
    out = 0
    while v:
        low = v & -v  # one loop per set bit: a Pauli term's masks hold a few
        out |= 1 << targets[low.bit_length() - 1]
        v ^= low
    return out


def row_reduce(vectors: Iterable[int]) -> list[int]:
    """Reduce a set of bit vectors to an independent basis.

    Parameters
    ----------
    vectors : iterable of int
        Bit vectors over GF(2).

    Returns
    -------
    list of int
        The reduced echelon basis of the span: pairwise distinct leading
        bits, each set in its own vector only, sorted in decreasing order.
        It depends on the span alone. Zero vectors are dropped, so
        ``len(result)`` is the rank.
    """
    basis: list[int] = []
    for v in vectors:
        v = reduce_mod(basis, v)
        if v:
            top = 1 << (v.bit_length() - 1)
            basis = [b ^ v if b & top else b for b in basis]
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def rank(vectors: Iterable[int]) -> int:
    """Rank of a set of bit vectors over GF(2)."""
    return len(row_reduce(vectors))


def reduce_mod(basis: Sequence[int], v: int) -> int:
    """Reduce v against an echelon basis, returning the remainder.

    The basis must have pairwise distinct leading bits and be sorted in
    decreasing order, as produced by ``row_reduce``. The remainder is zero
    exactly when v lies in the span.
    """
    for b in basis:
        # XOR against b exactly when it clears the leading bit it owns.
        nxt = v ^ b
        if nxt < v:
            v = nxt
    return v


def span(vectors: Iterable[int]) -> list[int]:
    """Every element of the span of the given vectors, each once."""
    elements = [0]
    for b in row_reduce(vectors):
        elements += [e ^ b for e in elements]
    return elements
