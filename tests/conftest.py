"""Every test starts with no field kept from an earlier CLI call.

``cli.main`` keeps one field per defining polynomial, with its primes and
iterates.  A test that patches a step of building them (the Hensel lift
behind the primes above d) must see that step run, whatever ran before.
"""

import pytest

from pcfcert import cli


@pytest.fixture(autouse=True)
def cold_field_cache():
    cli._field.cache_clear()
