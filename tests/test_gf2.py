"""GF(2) linear algebra checked against brute-force span enumeration."""

import random

import pytest

from gf2_kernel import kernel_basis
from toricsim import gf2


def brute_span(vectors):
    """All XOR combinations of the given masks, as a set."""
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def random_masks(rng, count, bits):
    return [rng.getrandbits(bits) for _ in range(count)]


def test_rank_matches_span_size():
    rng = random.Random(7)
    for _ in range(25):
        vecs = random_masks(rng, rng.randint(0, 9), 12)
        span = brute_span(vecs)
        assert 2 ** gf2.rank(vecs) == len(span)
        elements = gf2.span(vecs)
        assert len(elements) == len(span) and set(elements) == span


def test_row_reduce_preserves_span():
    rng = random.Random(11)
    for _ in range(25):
        vecs = random_masks(rng, rng.randint(1, 8), 10)
        basis = gf2.row_reduce(vecs)
        assert brute_span(basis) == brute_span(vecs)


def test_row_reduce_echelon_shape():
    rng = random.Random(13)
    for _ in range(25):
        basis = gf2.row_reduce(random_masks(rng, 8, 16))
        leads = [b.bit_length() for b in basis]
        assert 0 not in leads
        assert leads == sorted(leads, reverse=True)
        assert len(set(leads)) == len(leads)


def test_in_span_agrees_with_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        vecs = random_masks(rng, 5, 8)
        span = brute_span(vecs)
        for v in range(256):
            assert (gf2.reduce_mod(gf2.row_reduce(vecs), v) == 0) == (v in span)


def test_reduce_mod_cancels_span_members():
    rng = random.Random(19)
    for _ in range(20):
        basis = gf2.row_reduce(random_masks(rng, 6, 10))
        span = brute_span(basis)
        for v in span:
            assert gf2.reduce_mod(basis, v) == 0
        # residues of non-members are themselves outside the span
        for _ in range(10):
            v = rng.getrandbits(10)
            r = gf2.reduce_mod(basis, v)
            assert (r == 0) == (v in span)


def test_kernel_basis_combinations_vanish():
    rng = random.Random(23)
    for _ in range(25):
        vecs = random_masks(rng, rng.randint(1, 9), 7)
        kernel = kernel_basis(vecs)
        assert len(kernel) == len(vecs) - gf2.rank(vecs)
        for combo in kernel:
            acc = 0
            for pos in range(len(vecs)):
                if (combo >> pos) & 1:
                    acc ^= vecs[pos]
            assert acc == 0
        # the kernel masks are themselves independent
        assert gf2.rank(kernel) == len(kernel)


def test_kernel_basis_is_complete():
    # every vanishing combination must lie in the span of the returned masks
    rng = random.Random(29)
    for _ in range(10):
        vecs = random_masks(rng, 6, 5)
        kernel_span = brute_span(kernel_basis(vecs))
        hits = 0
        for combo in range(64):
            acc = 0
            for pos in range(6):
                if (combo >> pos) & 1:
                    acc ^= vecs[pos]
            if acc == 0:
                assert combo in kernel_span
                hits += 1
        assert hits == len(kernel_span)


def test_empty_inputs():
    assert gf2.rank([]) == 0
    assert gf2.row_reduce([]) == []
    assert gf2.reduce_mod(gf2.row_reduce([]), 0) == 0
    assert gf2.reduce_mod(gf2.row_reduce([]), 1) != 0
    assert kernel_basis([]) == []
