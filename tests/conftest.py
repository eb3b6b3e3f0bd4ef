"""Fixtures that more than one test module reads."""

from functools import cache

import pytest

from carlitzscan import bernoulli as bn
from carlitzscan import harmonic as hm


@pytest.fixture(scope="session")
def bernoulli_window():
    """B_(p-j) mod p for lemma 2.1's odd offsets j in 3..min(N_CAP + 1, p - 2),
    keyed by j: the reference route, power-sum extraction, checked against
    the exact recurrence where p - j <= BERNOULLI_CAP.  Each prime's window
    is built once per session: the Bernoulli and context tests both compare
    the range with it at every prime up to 3000."""

    @cache
    def window(p: int) -> dict[int, int]:
        out = {}
        for j in range(3, min(hm.N_CAP + 1, p - 2) + 1, 2):
            out[j] = bn.bernoulli_mod_p(p, p - j)
            if p - j <= bn.BERNOULLI_CAP:
                b = bn.bernoulli_exact(p - j)
                assert out[j] == b.numerator * pow(b.denominator, -1, p) % p, (p, j)
        return out

    return window
