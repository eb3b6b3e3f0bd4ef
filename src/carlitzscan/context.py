"""One context per prime and one registry entry per identity.

A PrimeContext holds the per-prime quantities the checks read (the
three binomial moments behind every alternating power sum, the central
binomial, the Bernoulli window, q2 and the two harmonic sweeps).  It is
the only producer of them: each is built the first time a check reads
it and then shared by every other check at that prime.  IDENTITIES
declares each identity once: its tag, where it applies, whether `verify`
runs it by default, and its check function.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import bernoulli as bn
from . import congruences as cg
from . import harmonic as hm
from . import residues as rs

__all__ = ["DEFAULT_A", "DEFAULT_CD_TRIPLES", "PrimeContext", "Identity", "IDENTITIES"]

DEFAULT_A = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_CD_TRIPLES = ((0, 2, 0), (0, 1, 1), (1, 1, 1), (1, 2, 1), (0, 3, 0))


class PrimeContext:
    """The quantities at one odd prime p, each computed at most once.

    `a_values` and `cd_triples` are the powers and u-sum triples the
    checks run over.  With `window` set, `bern` holds every B_(p-j) that
    lemma_2_1 reads; without it, B_(p-3) alone.
    """

    def __init__(self, p: int, a_values=DEFAULT_A, cd_triples=DEFAULT_CD_TRIPLES, window: bool = True):
        self.p = int(rs.OddPrime(p))
        self.a_values = tuple(a_values)
        self.cd_triples = tuple(cd_triples)
        self.window = window

    @cached_property
    def moments(self) -> tuple[int, int, int]:
        """(M1, M2, M3) mod p^4; cg.moment_power_sum reads any a-th power sum from them."""
        return cg.binomial_moments(self.p)

    @cached_property
    def central4(self) -> int:
        """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) mod p^4."""
        return rs.signed_central_binomial(self.p, 4)

    @cached_property
    def bern(self) -> dict[int, int]:
        """B_(p-j) mod p keyed by the offset j; empty at p = 3."""
        if self.p < 5:
            return {}
        if self.window:
            return bn.bernoulli_window_mod_p(self.p, hm.lemma_2_1_offsets(self.p))
        return {3: bn.bernoulli_pm3_mod_p(self.p)}

    @property
    def bpm3(self) -> "int | None":
        """B_(p-3) mod p, or None at p = 3 (where the checks use B_0 = 1)."""
        return self.bern.get(3)

    @cached_property
    def q2(self) -> int:
        """The Fermat quotient (2^(p-1) - 1)/p mod p^3."""
        return bn.fermat_quotient_2(self.p)

    @cached_property
    def half_sums(self) -> hm.HalfSums:
        return hm.half_range_sums(self.p)

    @cached_property
    def even_sums(self) -> hm.EvenSums:
        return hm.even_index_sums(self.p)


@dataclass(frozen=True)
class Identity:
    """One identity tag of `verify`.

    `over` names what the check runs over: "p" (a PrimeContext, for each
    prime >= p_min in the range, returning a list of checks), "n" (each
    n = 1..n_max, at most n_cap, returning one check) or "a" (each
    requested power, once per run).  `oracle` lists the quantities that
    `oracle` compares for it.  `window` marks the checks that read
    lemma_2_1's Bernoulli window.  A part (`part_of` set) adds nothing
    when its whole identity is also selected.
    """

    tag: str
    check: Callable
    p_min: int = 3
    default: bool = False
    over: str = "p"
    n_cap: "int | None" = None
    oracle: tuple[str, ...] = ()
    window: bool = False
    part_of: "str | None" = None


# checks are looked up in their modules at call time, so a wrapper rebound there (a tracer) sees each call
def _lemma_2_1(c: PrimeContext) -> list[cg.CongruenceCheck]:
    return hm.verify_lemma_2_1(c)


def _derived_sums(c: PrimeContext) -> list[cg.CongruenceCheck]:
    return hm.verify_derived_sums(c)


def _part(whole: Callable, tag: str) -> Callable:
    """The checks of `whole` that carry the tag `tag`."""
    return lambda c: [x for x in whole(c) if x.identity == tag]


_THEOREM = ("binom_table", "power_sum", "bernoulli")
_LEMMA_2_1 = ("half_harmonic", "bernoulli", "fermat")
_DERIVED = ("even_sums", "bernoulli", "fermat")

IDENTITIES: dict[str, Identity] = {
    e.tag: e
    for e in (
        Identity("theorem_1_1", lambda c: [cg.verify_theorem_1_1(c, a) for a in c.a_values],
                 default=True, oracle=_THEOREM),
        # a = 3, 4, 5 whatever a_values holds
        Identity("corollary", lambda c: [cg.verify_corollary(c, a) for a in (3, 4, 5)], oracle=_THEOREM),
        Identity("morley", lambda c: [cg.verify_morley(c)],
                 p_min=5, default=True, oracle=("binom_table",)),
        Identity("carlitz", lambda c: [cg.verify_carlitz(c)],
                 default=True, oracle=("binom_table", "bernoulli")),
        Identity("cai_granville", lambda c: [cg.verify_cai_granville(c, a) for a in c.a_values],
                 p_min=5, oracle=("binom_table", "power_sum")),
        Identity("chamberland_dilcher", lambda c: [cg.verify_chamberland_dilcher(c.p, *t) for t in c.cd_triples],
                 p_min=5, oracle=("cd",)),
        Identity("lemma_2_1", _lemma_2_1,
                 p_min=5, default=True, oracle=_LEMMA_2_1, window=True),
        Identity("lemma_2_1_i", _part(_lemma_2_1, "lemma_2_1_i"),
                 p_min=5, oracle=_LEMMA_2_1, window=True, part_of="lemma_2_1"),
        Identity("lemma_2_1_ii", _part(_lemma_2_1, "lemma_2_1_ii"),
                 p_min=5, oracle=("half_harmonic", "bernoulli"), window=True, part_of="lemma_2_1"),
        Identity("lemma_2_2", lambda c: hm.verify_lemma_2_2(c),
                 p_min=5, default=True, oracle=("even_sums", "bernoulli")),
        *(Identity(tag, _part(_derived_sums, tag),
                   p_min=5, default=tag in ("eq_2_9", "eq_2_10"), oracle=_DERIVED)
          for tag in ("eq_2_7", "eq_2_8", "eq_2_9", "eq_2_10")),
        Identity("exact_1_3", cg.exact_identity_1_3, over="n", n_cap=300),
        Identity("exact_1_4", cg.exact_identity_1_4, over="n", n_cap=200),
        Identity("p3_special", cg.verify_p3_special, over="a"),
    )
}
