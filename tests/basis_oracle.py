"""The binary search that ``stabilizer.Basis`` replaced, for the tests.

``locate`` finds full-space indices in a basis by a search of its sorted
``kept_indices``. ``Basis`` places a state by its index's pivot bits
instead, with no search; the tests check that the two agree, and use
``locate`` wherever a position must be found without the basis under test.
"""

import numpy as np


def locate(basis, configs):
    """Position in ``basis`` of each full-space index in ``configs``.

    Returns ``(positions, found)``: ``found`` is None when the basis holds
    every config; otherwise it marks those it holds, and ``positions`` is
    meaningless elsewhere.
    """
    kept = basis.kept_indices
    positions = np.minimum(np.searchsorted(kept, configs), kept.size - 1)
    found = kept[positions] == configs
    return positions, None if found.all() else found
