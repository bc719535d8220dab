from functools import cache

import pytest

from fmc.oracle import _bundle_powers

# The tables are built once per (a, kind, max_power) for the whole session.
_cached_bundle_powers = cache(_bundle_powers)


@pytest.fixture
def bundle_powers():
    """Graded tables {m: table} of P^a, (P^a)^2, ..., by iterated bundles."""
    return _cached_bundle_powers
