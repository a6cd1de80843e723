"""Divisor-lattice arithmetic over an exponent signature.

A positive integer N = p1^a1 * ... * pn^an is represented purely by its
exponent vector (a1 >= ... >= an); primes are abstract indices.  A divisor is
an exponent tuple bounded componentwise by the signature, and a squarefree
divisor is an n-bit mask (bit i set iff prime i divides it).  No prime values
are ever multiplied: every quantity of interest depends only on exponents and
supports.  A display mapping to actual primes (2, 3, 5, ...) exists purely for
readable output.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from math import isqrt, prod
from typing import Callable

from .errors import limit_error

# A divisor is an exponent tuple; a squarefree divisor is an int bitmask.
Divisor = tuple[int, ...]
Mask = int

MAX_PRIMES = 16
MAX_DIVISORS = 100_000


class Frozen:
    """Base of the package's immutable value types.

    A subclass declares its own `__slots__`, sets them in `__init__` through
    `object.__setattr__`, and defines `_key()`: the tuple of its state that
    equality and hashing read.  Setting or deleting an attribute raises
    AttributeError; a value equals only a value of its own class with the
    same key, and hashes as its key does.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Signature(Frozen):
    """Exponent vector of the ambient integer, sorted descending.

    `alphas` is the normalized (descending) vector; `original` preserves the
    caller's order and `perm` maps normalized index -> original index, so
    user-facing prime labels can be kept consistent after normalization.
    Immutable; equality and hashing consider `alphas` only.  Each exponent
    is read with `operator.index`, so a float or a string raises TypeError
    instead of being truncated or parsed.
    """

    __slots__ = ("alphas", "original", "perm")

    alphas: tuple[int, ...]
    original: tuple[int, ...]
    perm: tuple[int, ...]

    def __init__(self, exponents):
        orig = tuple(map(operator.index, exponents))
        if not orig:
            raise ValueError("signature needs at least one exponent")
        if any(a < 1 for a in orig):
            raise ValueError(f"exponents must be positive, got {orig}")
        if len(orig) > MAX_PRIMES:
            raise limit_error("the number of primes", len(orig), MAX_PRIMES,
                              "lattice.MAX_PRIMES")
        perm = tuple(sorted(range(len(orig)), key=lambda i: (-orig[i], i)))
        object.__setattr__(self, "alphas", tuple(orig[i] for i in perm))
        object.__setattr__(self, "original", orig)
        object.__setattr__(self, "perm", perm)

    def _key(self) -> tuple[int, ...]:
        return self.alphas

    def __repr__(self) -> str:
        return f"Signature(alphas={self.alphas!r})"

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def u(self) -> int:
        """Number of exponents strictly above the smallest one.

        Zero exactly when all exponents are equal; always < n.
        """
        return sum(1 for a in self.alphas if a > self.alphas[-1])

    @property
    def was_normalized(self) -> bool:
        return self.original != self.alphas

    def divisor_count(self) -> int:
        return prod(a + 1 for a in self.alphas)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.alphas)


# Canonical sort key: the first prime's exponent varies fastest.  Under this
# order p1 < p1^2 < ... < p2 < p1*p2 < ..., i.e. divisors supported on
# earlier primes come first.  The key is the reversed exponent tuple, taken
# by a C-level callable because every family sorts its members by it.
divisor_key: Callable[[Divisor], tuple[int, ...]] = \
    operator.itemgetter(slice(None, None, -1))


def check_lattice_size(sig: Signature) -> None:
    """Refuse a lattice above MAX_DIVISORS divisors before any walk."""
    count = sig.divisor_count()
    if count > MAX_DIVISORS:
        raise limit_error("the number of divisors in the lattice", count,
                          MAX_DIVISORS, "lattice.MAX_DIVISORS")


def enumerate_divisors(sig: Signature) -> list[Divisor]:
    """All exponent vectors of the lattice (including divisor 1), canonically ordered."""
    check_lattice_size(sig)
    axes = [range(a + 1) for a in reversed(sig.alphas)]
    return [t[::-1] for t in itertools.product(*axes)]


# The per-signature divisor tables below are as large as the lattice, so
# each keeps only the last signature asked for: the callers walk one
# signature at a time.

@lru_cache(maxsize=1)
def divisors(sig: Signature) -> tuple[Divisor, ...]:
    """`enumerate_divisors` as one shared tuple.

    Both tables below are built from it, each by a direct call rather than
    through the other, so a member of a lifted family is the very object
    that `divisor_set` holds, and a lookup stops at identity.
    """
    return tuple(enumerate_divisors(sig))


@lru_cache(maxsize=1)
def radical_table(sig: Signature) -> tuple[tuple[Divisor, ...],
                                           tuple[Mask, ...]]:
    """The lattice's divisors in canonical order, and their radicals."""
    table = divisors(sig)
    return table, tuple(map(radical, table))


def on_radicals(sig: Signature, masks: frozenset[Mask], items=None) -> tuple:
    """The divisors of `radical_table(sig)` whose radical lies in `masks`, in
    canonical order; given `items`, one per divisor of that table, the
    items of those divisors instead."""
    divisors, radicals = radical_table(sig)
    return tuple(itertools.compress(divisors if items is None else items,
                                    map(masks.__contains__, radicals)))


@lru_cache(maxsize=1)
def divisor_set(sig: Signature) -> frozenset[Divisor]:
    """The lattice's divisors, for membership tests."""
    return frozenset(divisors(sig))


def divides(a: Divisor, b: Divisor) -> bool:
    return all(x <= y for x, y in zip(a, b))


@lru_cache(maxsize=MAX_DIVISORS)
def radical(d: Divisor) -> Mask:
    """Support mask: bit i set iff prime i divides d.

    Cached: every family over one lattice looks up the same table.
    """
    m = 0
    for i, e in enumerate(d):
        if e:
            m |= 1 << i
    return m


def mask_to_divisor(mask: Mask, n: int) -> Divisor:
    """The squarefree divisor with the given support."""
    return tuple((mask >> i) & 1 for i in range(n))


@lru_cache(maxsize=1)
def squarefree_masks(n: int) -> dict[Divisor, Mask]:
    """Every squarefree exponent tuple of length at most n, keyed to its
    support mask.

    One lookup in it tells a squarefree member from any other and gives its
    mask, where a scan of the exponents would take longer.  It holds 2^(n+1)
    - 1 tuples, so only the last n asked for is kept.
    """
    return {tuple((m >> i) & 1 for i in range(k)): m
            for k in range(n + 1) for m in range(1 << k)}


def alpha_weight(mask: Mask, sig: Signature) -> int:
    """Product of the exponents over the primes in `mask`; 1 for the empty mask.

    This is the number of divisors of N whose radical is exactly the given
    squarefree divisor.
    """
    if mask >> sig.n:
        raise ValueError(f"mask {mask:#b} has bits outside the {sig.n}-prime lattice")
    w = 1
    for i in iter_bits(mask):
        w *= sig.alphas[i]
    return w


@lru_cache(maxsize=16)
def alpha_weights(sig: Signature) -> tuple[int, ...]:
    """`alpha_weight` of every mask of the lattice, indexed by mask.

    Cached per signature; the tuple is shared by every caller.
    """
    return tuple(alpha_weight(m, sig) for m in range(1 << sig.n))


def min_size_bound(sig: Signature) -> int:
    """Smallest possible size of a maximal pairwise-non-coprime divisor family.

    Equals an * prod(ai + 1 for i < n); attained by the family of all
    multiples of the last prime.
    """
    return sig.alphas[-1] * prod(a + 1 for a in sig.alphas[:-1])


def omega(d: Divisor) -> int:
    """Number of distinct primes dividing d."""
    return radical(d).bit_count()


def big_omega(d: Divisor) -> int:
    """Number of prime factors of d counted with multiplicity."""
    return sum(d)


def iter_bits(mask: Mask):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_bits(x: int) -> tuple[int, ...]:
    """Indices of the set bits of x >= 0, ascending, as `iter_bits` gives
    them, but read in one pass over the binary digits of x."""
    digits = bin(x)[:1:-1].encode().replace(b"0", b"\0")  # digit i is bit i
    return tuple(itertools.compress(itertools.count(), digits))


def reverse_bits(x: int, width: int) -> int:
    """The low `width` bits of x >= 0 read backwards: bit i becomes bit
    width-1-i.  Bits at or above `width` are dropped."""
    return int(format(x & ((1 << width) - 1), f"0{width}b")[::-1], 2)


# The subsets of a mask on at most 16 primes take at most 8 KB as one int,
# so this cache holds at most 8 MB, where a table over all 2^16 masks would
# take 512 MB.
@lru_cache(maxsize=1024)
def subsets(mask: Mask) -> int:
    """The subsets of `mask` as one int: bit y is set when y & ~mask == 0.

    The subsets of a mask with element i are those without it, together
    with them shifted up by 2^i.  The supersets of x within a ground g
    are `subsets(g ^ x) << x`.
    """
    below = 1
    for i in iter_bits(mask):
        below |= below << (1 << i)
    return below


def covers(bits: int, ground: Mask) -> int:
    """The masks one element of `ground` above a member of `bits`, as one
    int over the masks, for members within `ground`.

    The members without element i, shifted up by 2^i, gain i.  So `bits` is
    upward closed in the ground when `covers(bits, ground) & ~bits` is 0,
    and its minimal members are `bits & ~covers(bits, ground)`.
    """
    above = 0
    for without, step in _cover_steps(ground):
        above |= (bits & without) << step
    return above


@lru_cache(maxsize=16)
def _cover_steps(ground: Mask) -> tuple[tuple[int, int], ...]:
    """For each element i of `ground`, the subsets of the ground without i
    and the shift 2^i that adds i to them."""
    return tuple((subsets(ground ^ 1 << i), 1 << i) for i in iter_bits(ground))


def meet_rows(rads: list[Mask]) -> list[int]:
    """Rows of the graph joining the vertices whose masks meet: bit j of
    row i is set when i != j and rads[i] & rads[j].

    The vertices holding element e are gathered once per element, and a
    row is the union of those of its mask's elements.
    """
    holding = [0] * max(rads, default=0).bit_length()
    for v, r in enumerate(rads):
        for e in iter_bits(r):
            holding[e] |= 1 << v
    rows = []
    for v, r in enumerate(rads):
        row = 0
        for e in iter_bits(r):
            row |= holding[e]
        rows.append(row & ~(1 << v))
    return rows


# Most signatures one grid may hold: C(max_n + max_exp, max_n) - 1.  The
# largest grid of the tests and the benchmark has 18563 (6 primes, exponents
# up to 12); 6 primes up to 24 would have 593774.  It bounds the number of
# cells of a sweep, not the time each cell takes.
GRID_CAP = 50_000


def signature_grid(max_n: int, max_exp: int) -> list[Signature]:
    """Every normalized signature with n <= max_n primes and exponents <= max_exp.

    Deterministic order: by prime count, then lexicographically on the
    exponent vector.  Only non-increasing vectors are built, one per
    multiset of exponents, so each signature appears exactly once.  A grid
    of more than GRID_CAP signatures is refused before any is built.  Its
    size is counted one factor of C(max_n + max_exp, max_n) at a time,
    C(max_exp + i, i) growing with i, and the count stops at the cap.
    """
    if max_n < 1 or max_exp < 1:
        raise ValueError("signature grid needs max_n >= 1 and max_exp >= 1")
    size = 1
    for i in range(1, max_n + 1):
        size = size * (max_exp + i) // i
        if size - 1 > GRID_CAP:
            raise limit_error("the number of signatures in the grid", None,
                              GRID_CAP, "lattice.GRID_CAP")
    out = [Signature(alphas) for n in range(1, max_n + 1)
           for alphas in itertools.combinations_with_replacement(
               range(max_exp, 0, -1), n)]
    out.sort(key=lambda s: (s.n, s.alphas))
    return out


# --- display helpers (human-readable output only; never used in the math) ---
#
# None of them keeps a cache: a listing calls them once per divisor or mask,
# through the display tables (`report.Table`) that its command holds.

def first_primes(n: int) -> tuple[int, ...]:
    """The n smallest primes, for labeling abstract prime indices."""
    primes: list[int] = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return tuple(primes)


def display_value(d: Divisor, primes: tuple[int, ...]) -> int:
    """Integer value of a divisor under a concrete prime labeling."""
    return prod(p ** e for p, e in zip(primes, d))


def format_divisor(d: Divisor) -> str:
    """Symbolic form like 'p1^2*p3'; '1' for the empty divisor."""
    parts = []
    for i, e in enumerate(d):
        if e == 1:
            parts.append(f"p{i + 1}")
        elif e > 1:
            parts.append(f"p{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


# Trial division stops below 2^21, the cube root of 2^63: what is left of a
# value up to 2^63 then has at most two prime factors, both above 2^21.
_TRIAL_LIMIT = 1 << 21

# Miller-Rabin on these bases is exact for every n below 3.3 * 10^24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact far beyond 2^63."""
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(value: int) -> tuple[Signature, tuple[int, ...]]:
    """Factor an integer 2 <= value <= 2^63 (input convenience only).

    Returns the normalized signature together with its primes reordered to
    match, so display output uses the integer's own primes.  Trial division
    runs below 2^21; the cofactor left is 1, a prime or a prime square,
    which `_is_prime` and `isqrt` settle, or a product of two distinct
    primes above 2^21, which is refused.
    """
    if value < 2:
        raise ValueError(f"cannot build a signature from {value}: need an integer >= 2")
    if value > 2**63:
        raise ValueError(f"{value} exceeds the 2^63 factoring convenience limit")
    pairs = []
    rest = value
    d = 2
    while d < _TRIAL_LIMIT and d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                e += 1
                rest //= d
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        root = isqrt(rest)
        if root * root == rest:
            pairs.append((root, 2))
        elif _is_prime(rest):
            pairs.append((rest, 1))
        else:
            raise ValueError(
                f"{value} has two distinct prime factors above 2^21, which "
                f"the factoring convenience does not split; give its "
                f"exponents with --sig")
    sig = Signature([e for _, e in pairs])
    primes = tuple(pairs[i][0] for i in sig.perm)
    return sig, primes
