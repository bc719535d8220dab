from functools import cache

import pytest

from fmc.theory import POINT_TABLE, proj_bundle_table


@cache
def _bundle_powers(a, kind, max_power):
    # The m-th power of a-dimensional projective space is a projective
    # bundle with rank parameter a + 1 over the (m-1)-st, so no product
    # formula is needed: the reference route for built-in ranks.
    powers, table = {}, POINT_TABLE
    for m in range(1, max_power + 1):
        table = powers[m] = proj_bundle_table(table, a + 1, m * a, kind)
    return powers


@pytest.fixture
def bundle_powers():
    """Graded tables {m: table} of P^a, (P^a)^2, ..., by iterated bundles."""
    return _bundle_powers
