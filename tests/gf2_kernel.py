"""GF(2) kernel bases, for the tests.

``kernel_basis`` finds the vanishing combinations of a set of bit vectors.
The tests use it as an oracle: for the cycles inside a region in
``test_lattice.py``, and for the Z-symmetries whose parities label the
block that ``ed.build_block`` builds directly, in ``test_ed.py``. It is
checked against brute-force enumeration in ``test_gf2.py``.
"""

from collections.abc import Sequence

from toricsim.gf2 import row_reduce


def kernel_basis(vectors: Sequence[int]) -> list[int]:
    """Basis of combination masks whose XOR of input vectors vanishes.

    Returns masks c over input positions such that the XOR of
    ``vectors[i]`` over all set bits i of c is zero. The masks form a basis
    of the kernel of the combination map, so every vanishing combination is
    an XOR of returned masks.
    """
    # Reduce each vector with its combination mask below it: the rows left with
    # no vector part have distinct leading mask bits, and they span the kernel.
    k = len(vectors)
    rows = row_reduce((v << k) | (1 << i) for i, v in enumerate(vectors))
    return [r for r in rows if r >> k == 0]
