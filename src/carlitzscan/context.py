"""Per-chunk and per-prime quantities, and one registry entry per identity.

A PrimeRange computes, for a chunk of primes at once, the quantities
that are prefix products or prefix sums of sequences free of p (the
central binomial, Staver's sum behind the binomial moments, B_(p-3),
the half-range sums with the Bernoulli window, and the even-index
sums).  A PrimeContext holds the per-prime quantities the checks read
(the three binomial moments behind every alternating power sum, the
central binomial, B_(p-3), the Bernoulli window, q2, the two harmonic
sums and the u-sums), reading the chunk-wide ones from its range.  It
is the only producer of them: each is built the first time a check
reads it and then shared by every other check at that prime.  Its
fields are also what `oracle` compares: whatever the selected checks
populated.
IDENTITIES declares each identity once: its tag, where it applies,
whether `verify` runs it by default, and its check function.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import bernoulli as bn
from . import congruences as cg
from . import harmonic as hm
from . import residues as rs

__all__ = ["CHUNK", "DEFAULT_A", "DEFAULT_CD_TRIPLES", "PrimeRange", "PrimeContext", "Identity", "IDENTITIES"]

DEFAULT_A = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_CD_TRIPLES = ((0, 2, 0), (0, 1, 1), (1, 1, 1), (1, 2, 1), (0, 3, 0))
# primes per PrimeRange in a scan: each chunk repeats the sweep over 1..p,
# so larger chunks share more of it, with diminishing returns past this
CHUNK = 128


class _OnRead(dict):
    """A dict that builds the value of a missing key on its first read."""

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        self[key] = value = self.build(key)
        return value


class PrimeRange:
    """The chunk-wide quantities of a chunk of odd primes, each field a dict
    keyed by p from one sweep over the chunk, built on its first read."""

    def __init__(self, primes):
        self.primes = tuple(sorted({rs.OddPrime(p) for p in primes}))

    @cached_property
    def moments(self) -> dict[int, tuple[int, int, int]]:
        """The binomial moments (M1, M2, M3) mod p^4 keyed by p.

        cg.theorem_row's expansion S_a = 1 + a M1 + C(a,2) M2 +
        C(a,3) M3 holds for every integer a, so three closed sums fix the
        moments: S_1 = 2^(p-1), S_2 = central4 and Staver's
        S_(-1) = 1 - M1 + M2 - M3 = 1 + p 2^(-p) W (cg.staver_sweep)."""
        out = {}
        for p, w in cg.staver_sweep(self.primes).items():
            m = p**4
            m1 = pow(2, p - 1, m) - 1
            m2 = self.central4[p] - 1 - 2 * m1
            s_neg = 1 + p * pow(2, -p, m) * w
            out[p] = (m1, m2 % m, (1 - m1 + m2 - s_neg) % m)
        return out

    @cached_property
    def central4(self) -> dict[int, int]:
        """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) mod p^4 keyed by p."""
        return rs.signed_central_binomials(self.primes)

    @cached_property
    def bpm3(self) -> dict[int, int]:
        """B_(p-3) mod p keyed by p, for p >= 5."""
        return bn.bernoulli_pm3_mod_primes([p for p in self.primes if p > 3])

    @cached_property
    def inverse_powers(self) -> dict[int, tuple[hm.HalfSums, dict[int, int]]]:
        """The half-range sums and the B_(p-j) mod p of lemma 2.1's offsets
        j >= 5 keyed by p, for p >= 5."""
        return hm.inverse_power_sweep([p for p in self.primes if p > 3])

    @cached_property
    def even_sums(self) -> dict[int, hm.EvenSums]:
        """The even-largest-index sums keyed by p, for p >= 5."""
        return hm.even_index_sweep([p for p in self.primes if p > 3])

    def contexts(self, a_values=DEFAULT_A, cd_triples=DEFAULT_CD_TRIPLES):
        """One PrimeContext per prime, in order, each reading this range."""
        return (PrimeContext(p, a_values, cd_triples, self) for p in self.primes)


class PrimeContext:
    """The quantities at one odd prime p, each computed at most once.

    `a_values` and `cd_triples` are the powers and u-sum triples the
    checks run over.  `moments`, `central4`, `bpm3`, `bern`, `half_sums`
    and `even_sums` are read from `prime_range`, a PrimeRange holding p
    (by default one of p alone).  The keyed field
    `cd` builds each entry on its first read, so a context holds what
    its checks read.
    """

    def __init__(self, p: int, a_values=DEFAULT_A, cd_triples=DEFAULT_CD_TRIPLES,
                 prime_range: "PrimeRange | None" = None):
        self.p = rs.OddPrime(p)
        self.a_values = tuple(a_values)
        self.cd_triples = tuple(cd_triples)
        self.prime_range = prime_range or PrimeRange((self.p,))

    @cached_property
    def moments(self) -> tuple[int, int, int]:
        """(M1, M2, M3) mod p^4; cg.theorem_row reads any a-th power sum from them."""
        return self.prime_range.moments[self.p]

    @cached_property
    def central4(self) -> int:
        """(-1)^((p-1)/2) binomial(p-1, (p-1)/2) mod p^4."""
        return self.prime_range.central4[self.p]

    @cached_property
    def bpm3(self) -> "int | None":
        """B_(p-3) mod p, or None at p = 3 (where the checks use B_0 = 1)."""
        return None if self.p == 3 else self.prime_range.bpm3[self.p]

    @cached_property
    def bern(self) -> dict[int, int]:
        """B_(p-j) mod p keyed by the odd offset j <= min(N_CAP + 1, p - 2) that
        lemma 2.1 reads, for p >= 5: j = 3 is `bpm3`, and the range's
        inverse-power sweep gives the rest."""
        return {3: self.bpm3, **self.prime_range.inverse_powers[hm._validate(self.p)][1]}

    @cached_property
    def q2(self) -> int:
        """The Fermat quotient (2^(p-1) - 1)/p mod p^3."""
        return bn.fermat_quotient_2(self.p)

    @cached_property
    def half_sums(self) -> hm.HalfSums:
        return self.prime_range.inverse_powers[hm._validate(self.p)][0]

    @cached_property
    def even_sums(self) -> hm.EvenSums:
        return self.prime_range.even_sums[hm._validate(self.p)]

    @cached_property
    def cd(self) -> dict[tuple[int, int, int], int]:
        """The u-sum mod p^3 keyed by its (eps, a, b) triple."""
        p = self.p  # not self: the field would hold its context in a cycle
        return _OnRead(lambda t: cg.chamberland_dilcher_u(p, *t))


@dataclass(frozen=True)
class Identity:
    """One identity tag of `verify`.

    `over` names what the check runs over: "p" (a PrimeContext, for each
    prime >= p_min in the range, returning a list of checks), "n" (each
    n = 1..n_max, at most n_cap, returning one check) or "a" (each
    requested power, once per run).  A part (`part_of` set) shares its
    whole's check, whose records carry the tags of all its parts: a scan
    calls it once per prime for every selected part of that whole and keeps
    the records of those parts.  A part adds nothing when its whole identity
    is also selected.
    """

    tag: str
    check: Callable
    p_min: int = 3
    default: bool = False
    over: str = "p"
    n_cap: "int | None" = None
    part_of: "str | None" = None


# checks are looked up in their modules at call time, so a wrapper rebound there (a tracer) sees each call
def _lemma_2_1(c: PrimeContext) -> list[cg.CongruenceCheck]:
    return hm.verify_lemma_2_1(c)


def _derived_sums(c: PrimeContext) -> list[cg.CongruenceCheck]:
    return hm.verify_derived_sums(c)


IDENTITIES: dict[str, Identity] = {
    e.tag: e
    for e in (
        Identity("theorem_1_1", lambda c: cg.verify_theorem_1_1(c, c.a_values), default=True),
        # a = 3, 4, 5 whatever a_values holds
        Identity("corollary", lambda c: cg.verify_corollary(c)),
        Identity("morley", lambda c: [cg.verify_morley(c)], p_min=5, default=True),
        Identity("carlitz", lambda c: [cg.verify_carlitz(c)], default=True),
        Identity("cai_granville", lambda c: cg.verify_cai_granville(c, c.a_values), p_min=5),
        Identity("chamberland_dilcher", lambda c: [cg.verify_chamberland_dilcher(c, *t) for t in c.cd_triples], p_min=5),
        Identity("lemma_2_1", _lemma_2_1, p_min=5, default=True),
        Identity("lemma_2_1_i", _lemma_2_1, p_min=5, part_of="lemma_2_1"),
        Identity("lemma_2_1_ii", _lemma_2_1, p_min=5, part_of="lemma_2_1"),
        Identity("lemma_2_2", lambda c: hm.verify_lemma_2_2(c), p_min=5, default=True),
        # parts of a whole that is no identity of its own
        *(Identity(tag, _derived_sums, p_min=5, default=tag in ("eq_2_9", "eq_2_10"), part_of="derived_sums")
          for tag in ("eq_2_7", "eq_2_8", "eq_2_9", "eq_2_10")),
        Identity("exact_1_3", cg.exact_identity_1_3, over="n", n_cap=300),
        Identity("exact_1_4", cg.exact_identity_1_4, over="n", n_cap=200),
        Identity("p3_special", cg.verify_p3_special, over="a"),
    )
}
