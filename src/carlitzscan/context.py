"""Per-prime quantities declared once, and one registry entry per identity.

FIELDS declares each quantity the checks read: how it is produced, its
naive route and the least p it applies to.  A PrimeRange holds each
field for a chunk of primes, keyed by p.  Most come from one sweep over
the chunk, since they are prefix products or prefix sums of sequences
free of p (the central binomial, Staver's S_(-1) behind the binomial
moments, B_(p-3), the half-range sums with lemma 2.1's Bernoulli window,
and the even-index sums), all read through rs.walk_reads; q2 and the
u-sums of the range's (eps, a, b) triples are computed one prime at a
time.  B_(p-3) takes two walks: its sum S(n) of x^(-3) to n = p // 6
splits by the power of 2 in x as S(n) = sum_a 8^(-a) O(n >> a), O
summing odd x only, so one walk over the odd x serves every level above
bn.PM3_FULL = 128, and a walk over every x to PM3_FULL takes the rest
(128 < 997 // 6, so primes under the oracle's cap of 1000 read the odd
walk too).  A PrimeContext holds the values at one prime, read from its
range.  Both build a field on its first read and keep it, so every
check at a prime shares one value; PrimeRange.__getattr__ is the one
place that calls a field's producer and stores its values, once per
chunk and field.  What a context holds is also what `oracle` compares:
the fields the selected checks populated, each with its naive route.
IDENTITIES declares each identity once: its tag, where it applies,
whether `verify` runs it by default, and its check function.
"""

from dataclasses import dataclass
from math import comb
from typing import Callable

from . import bernoulli as bn
from . import congruences as cg
from . import harmonic as hm
from . import residues as rs

__all__ = ["CHUNK", "DEFAULT_A", "DEFAULT_CD_TRIPLES", "Field", "FIELDS", "PrimeRange", "PrimeContext",
           "Identity", "IDENTITIES"]

DEFAULT_A = (1, 2, 3, 4, 5, 6, 7, 8)
DEFAULT_CD_TRIPLES = ((0, 2, 0), (0, 1, 1), (1, 1, 1), (1, 2, 1), (0, 3, 0))
# primes per PrimeRange in a scan: each chunk repeats the sweep over 1..p,
# so larger chunks share more of it, with diminishing returns past this
CHUNK = 128


@dataclass(frozen=True)
class Field:
    """One quantity the checks read, declared once.

    `by_prime` takes a PrimeRange and the range's primes >= p_min and
    returns the values keyed by p.  `naive(p, value)` is the oracle's
    independent route: the name of the first quantity that disagrees, or
    None.  Below p_min the field is None.
    """

    naive: Callable
    by_prime: Callable
    p_min: int = 3


# the producers look up their kernels in their modules at call time, so a
# wrapper rebound there (a tracer, a test's corruption) sees each call

def _moments(r: "PrimeRange", primes) -> dict[int, tuple[int, int, int]]:
    """The binomial moments (M1, M2, M3) mod p^4 keyed by p.

    cg.theorem_row's expansion S_a = 1 + a M1 + C(a,2) M2 + C(a,3) M3
    holds for every integer a, so three closed sums fix the moments:
    S_1 = 2^(p-1) = 1 + p q2, S_2 = central4 and Staver's
    S_(-1) = 1 - M1 + M2 - M3, read from cg.staver_sweep."""
    out = {}
    for p, s_neg in cg.staver_sweep(primes).items():
        m = p**4
        m1 = p * r.q2[p]
        m2 = r.central4[p] - 1 - 2 * m1
        out[p] = (m1, m2 % m, (1 - m1 + m2 - s_neg) % m)
    return out


def _naive_moments(p: int, moments: tuple[int, int, int]) -> "str | None":
    """The power sums the verdicts read (theorem_row over the range's
    moments) against direct powers for a <= 10.  S_a = 1 + a M1 +
    C(a,2) M2 + C(a,3) M3 is unit-triangular in M1..M3 over a = 1..3, so
    those three fix the moments themselves."""
    direct = cg.lhs_power_sums_batch(p, 10)
    for a, lhs, _ in cg.theorem_row(p, moments, range(1, 11)):
        if lhs != direct[a]:
            return f"power_sum(p={p}, a={a})"
    return None


def _naive_central4(p: int, central4: int) -> "str | None":
    """The range's sweep against exact binomials."""
    mid = (p - 1) // 2
    if central4 != (-1) ** mid * comb(p - 1, mid) % p**4:
        return f"central_binomial(p={p}, e=4)"
    return None


def _naive_bernoulli(p: int, values: dict[int, int], name: str) -> "str | None":
    """`name`, formatted with p and j, at the first offset j whose value is
    not B_(p-j) mod p by power-sum extraction, itself checked against the
    exact recurrence where p - j <= BERNOULLI_CAP; None if all agree."""
    for j, value in sorted(values.items()):
        want = bn.bernoulli_mod_p(p, p - j)
        if p - j <= bn.BERNOULLI_CAP:
            b = bn.bernoulli_exact(p - j)
            if want != b.numerator * pow(b.denominator, -1, p) % p:
                return f"bernoulli_mod_p(p={p}, index={p - j})"
        if value != want:
            return name.format(p=p, j=j)
    return None


def _naive_q2(p: int, q2: int) -> "str | None":
    if q2 != (pow(2, p - 1) - 1) // p % p**3:
        return f"fermat_quotient_2(p={p})"
    return None


def _naive_half_sums(p: int, half: hm.HalfSums) -> "str | None":
    """The window's offsets against the odd j in 5..min(N_CAP + 1, p - 2)
    that lemma 2.1 reads beside B_(p-3), and each B_(p-j) against
    power-sum extraction; then the half-range sums against term-by-term
    inversion, after their exponents against the n = 2..min(N_CAP, p-2)
    lemma 2.1 reads."""
    if sorted(half.window) != list(range(5, min(hm.N_CAP + 1, p - 2) + 1, 2)):
        return f"bern_offsets(p={p})"
    if bad := _naive_bernoulli(p, half.window, "bern(p={p}, j={j})"):
        return bad
    if sorted(half.hn) != list(range(2, min(hm.N_CAP, p - 2) + 1)):
        return f"half_hn_keys(p={p})"
    if half.h1 != hm.naive_half_harmonic(p, 1, 3):
        return f"half_h1(p={p})"
    for n, v in half.hn.items():
        if v != hm.naive_half_harmonic(p, n, 2 if n % 2 == 0 else 1):
            return f"half_hn(p={p}, n={n})"
    return None


def _naive_even_sums(p: int, even: hm.EvenSums) -> "str | None":
    """The range's even-index sums against the literal sums, after the
    double sums' keys (s, t, e) against the three the checks read."""
    if sorted(even.double) != [(1, 1, 2), (1, 2, 1), (2, 1, 1)]:
        return f"even_double_keys(p={p})"
    for (s, t, e), v in even.double.items():
        if v != hm.naive_even_double(p, s, t, e):
            return f"even_double(p={p}, s={s}, t={t}, e={e})"
    if even.triple != hm.naive_even_triple(p):
        return f"even_triple(p={p})"
    return None


def _naive_cd(p: int, cd: dict[tuple[int, int, int], int]) -> "str | None":
    for (eps, a, b), v in sorted(cd.items()):
        if v != cg.chamberland_dilcher_exact(p, eps, a, b):
            return f"cd(p={p}, eps={eps}, a={a}, b={b})"
    return None


# every quantity a check reads, in the order `oracle` compares them; a
# new one needs its entry here and a test against its naive route
FIELDS: dict[str, Field] = {
    # (M1, M2, M3) mod p^4; cg.theorem_row reads any a-th power sum from them
    "moments": Field(_naive_moments, _moments),
    # (-1)^((p-1)/2) binomial(p-1, (p-1)/2) mod p^4
    "central4": Field(_naive_central4, lambda r, primes: rs.signed_central_binomials(primes)),
    # B_(p-3) mod p (at p = 3 the checks use B_0 = 1)
    "bpm3": Field(lambda p, v: _naive_bernoulli(p, {3: v}, "bernoulli_pm3(p={p})"),
                  lambda r, primes: bn.bernoulli_pm3_mod_primes(primes), 5),
    # the half-range sums with B_(p-j) mod p at lemma 2.1's odd offsets 5 <= j <= min(N_CAP + 1, p - 2)
    "half_sums": Field(_naive_half_sums, lambda r, primes: hm.inverse_power_sweep(primes), 5),
    # the Fermat quotient (2^(p-1) - 1)/p mod p^3
    "q2": Field(_naive_q2, lambda r, primes: {p: bn.fermat_quotient_2(p) for p in primes}),
    "even_sums": Field(_naive_even_sums, lambda r, primes: hm.even_index_sweep(primes), 5),
    # the u-sum mod p^3 keyed by its (eps, a, b) triple, for each of the range's triples
    "cd": Field(_naive_cd, lambda r, primes: {p: cg.chamberland_dilcher_sums(p, r.cd_triples) for p in primes}, 5),
}


class PrimeRange:
    """The fields of a chunk of odd primes: each a dict keyed by p, built
    for the whole chunk on its first read.  `cd_triples` are the
    distinct (eps, a, b) triples the u-sum check runs over, in first-seen
    order."""

    def __init__(self, primes, cd_triples=DEFAULT_CD_TRIPLES):
        self.primes = tuple(sorted({rs.odd_prime(p) for p in primes}))
        self.cd_triples = tuple(dict.fromkeys(cd_triples))

    def __getattr__(self, name: str):
        # reached only for a name the instance does not hold yet; an
        # unknown one fails before the instance is read, so copy and
        # pickle, which probe a bare instance, see a plain AttributeError
        field = FIELDS.get(name)
        if field is None:
            raise AttributeError(f"{type(self).__name__} has no field {name!r}")
        value = vars(self)[name] = field.by_prime(self, [p for p in self.primes if p >= field.p_min])
        return value

    def contexts(self, a_values=DEFAULT_A):
        """One PrimeContext per prime, in order, each reading this range."""
        return (PrimeContext(p, a_values, prime_range=self) for p in self.primes)


class PrimeContext:
    """The quantities at one odd prime p, each computed at most once.

    `a_values` are the powers the checks run over.  Each FIELDS entry is
    an attribute, read from `prime_range` on its first read: a
    PrimeRange holding p, by default one of p alone with `cd_triples`.
    `row` keeps each cg.theorem_row the checks read.
    """

    def __init__(self, p: int, a_values=DEFAULT_A, cd_triples=DEFAULT_CD_TRIPLES,
                 prime_range: "PrimeRange | None" = None):
        self.p = rs.odd_prime(p)
        self.a_values = tuple(a_values)
        self.prime_range = prime_range or PrimeRange((self.p,), cd_triples)
        self.rows = {}

    def __getattr__(self, name: str):
        # as PrimeRange.__getattr__: an unknown name never reads the instance
        field = FIELDS.get(name)
        if field is None:
            raise AttributeError(f"{type(self).__name__} has no field {name!r}")
        value = None if self.p < field.p_min else getattr(self.prime_range, name)[self.p]
        vars(self)[name] = value
        return value

    def row(self, a_values) -> list[tuple[int, int, int]]:
        """cg.theorem_row over `a_values`, built once per tuple of a values:
        theorem_1_1 and cai_granville share the row of `a_values`, and the
        corollary reads that of (3, 4, 5)."""
        key = tuple(a_values)
        if key not in self.rows:
            self.rows[key] = cg.theorem_row(self.p, self.moments, key)
        return self.rows[key]


@dataclass(frozen=True)
class Identity:
    """One identity tag of `verify`.

    `over` names what the check runs over: "p" (a PrimeContext, for each
    prime >= p_min in the range, returning a list of checks), "n" (each
    n = 1..n_max, at most n_cap, returning one check) or "a" (each
    requested power, once per run).  A check's records carry its tag, or
    the tag plus `_` and a suffix; tags that name one check (lemma_2_1 and
    its two halves, eq_2_7..eq_2_10) share its p_min.
    """

    tag: str
    check: Callable
    p_min: int = 3
    default: bool = False
    over: str = "p"
    n_cap: "int | None" = None
    per: str = ""  # the ScanConfig field whose entries each add a record at every prime


# checks are looked up in their modules at call time, so a wrapper rebound there (a tracer) sees each call
def _lemma_2_1(c: PrimeContext) -> list[cg.CongruenceCheck]:
    return hm.verify_lemma_2_1(c)


def _derived_sums(c: PrimeContext) -> list[cg.CongruenceCheck]:
    return hm.verify_derived_sums(c)


IDENTITIES: dict[str, Identity] = {
    e.tag: e
    for e in (
        Identity("theorem_1_1", lambda c: cg.verify_theorem_1_1(c, c.a_values), default=True, per="a_values"),
        # a = 3, 4, 5 whatever a_values holds
        Identity("corollary", lambda c: cg.verify_corollary(c)),
        Identity("morley", lambda c: [cg.verify_morley(c)], p_min=5, default=True),
        Identity("carlitz", lambda c: [cg.verify_carlitz(c)], default=True),
        Identity("cai_granville", lambda c: cg.verify_cai_granville(c, c.a_values), p_min=5, per="a_values"),
        Identity("chamberland_dilcher", lambda c: [cg.verify_chamberland_dilcher(c, *t) for t in c.prime_range.cd_triples],
                 p_min=5, per="cd_triples"),
        Identity("lemma_2_1", _lemma_2_1, p_min=5, default=True),
        Identity("lemma_2_1_i", _lemma_2_1, p_min=5),
        Identity("lemma_2_1_ii", _lemma_2_1, p_min=5),
        Identity("lemma_2_2", lambda c: hm.verify_lemma_2_2(c), p_min=5, default=True),
        *(Identity(tag, _derived_sums, p_min=5, default=tag in ("eq_2_9", "eq_2_10"))
          for tag in ("eq_2_7", "eq_2_8", "eq_2_9", "eq_2_10")),
        Identity("exact_1_3", cg.exact_identity_1_3, over="n", n_cap=300),
        Identity("exact_1_4", cg.exact_identity_1_4, over="n", n_cap=200),
        Identity("p3_special", cg.verify_p3_special, over="a"),
    )
}
