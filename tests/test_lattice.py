import itertools
import random
import time
from math import comb, prod

import pytest
from hypothesis import example, given, strategies as st

from divint import families, lattice, matching
from divint.errors import ResourceLimitError
from divint.lattice import Signature


signatures = st.lists(st.integers(1, 4), min_size=1, max_size=5).map(Signature)


def test_signature_normalizes_descending():
    sig = Signature((1, 2))
    assert sig.alphas == (2, 1)
    assert sig.was_normalized
    assert sig.original == (1, 2)
    # index 1 of the input became the first normalized slot
    assert sig.perm == (1, 0)


def test_signature_equality_ignores_input_order():
    assert Signature((1, 2, 2)) == Signature((2, 2, 1))
    assert hash(Signature((1, 2, 2))) == hash(Signature((2, 2, 1)))


def test_signature_is_immutable_and_keeps_its_repr():
    sig = Signature((1, 2))
    for name in ("alphas", "original", "perm", "other"):
        with pytest.raises(AttributeError):
            setattr(sig, name, (1,))
    with pytest.raises(AttributeError):
        del sig.alphas
    assert (sig.alphas, sig.original, sig.perm) == ((2, 1), (1, 2), (1, 0))
    assert repr(sig) == "Signature(alphas=(2, 1))"
    assert sig != (2, 1)


FROZEN_VALUES = [
    (lambda: Signature((1, 2)), lambda v: v.alphas),
    (lambda: families.DivisorFamily([(1, 0), (1, 1)]), lambda v: v.members),
    (lambda: matching.UpwardClosedFamily(0b11, (0b01, 0b11)),
     lambda v: (v.ground, v.members)),
]


@pytest.mark.parametrize("make, key", FROZEN_VALUES,
                         ids=["Signature", "DivisorFamily", "UpwardClosedFamily"])
def test_frozen_values_refuse_every_set_and_delete(make, key):
    """The three value types take immutability, equality and hashing from
    `lattice.Frozen` alone, and hash as their key does."""
    value = make()
    cls = type(value)
    for method in ("__setattr__", "__delattr__", "__eq__", "__hash__"):
        assert getattr(cls, method) is getattr(lattice.Frozen, method), method
    assert hash(value) == hash(key(value))
    before = hash(value)
    message = f"{cls.__name__} is immutable"
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, ())
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert value == make() and key(value) == key(make())
    assert hash(value) == before


def test_signature_rejects_bad_input():
    with pytest.raises(ValueError):
        Signature(())
    with pytest.raises(ValueError):
        Signature((2, 0))
    with pytest.raises(ValueError):
        Signature((-1,))
    with pytest.raises(ResourceLimitError, match=r"lattice\.MAX_PRIMES"):
        Signature((1,) * (lattice.MAX_PRIMES + 1))
    assert Signature((1,) * lattice.MAX_PRIMES).n == lattice.MAX_PRIMES


@pytest.mark.parametrize("exponents", [(1.5, 2), (2.0,), ("3",), (2, "1")])
def test_signature_refuses_exponents_that_are_not_ints(exponents):
    """Each exponent is read with operator.index: (1.5, 2) is not truncated
    to the signature 2,1 of another N, nor is "3" parsed as 3."""
    with pytest.raises(TypeError):
        Signature(exponents)


@pytest.mark.parametrize("alphas,u", [
    ((2, 1, 1, 1), 1),
    ((1, 1), 0),
    ((3,), 0),
    ((3, 2, 2), 1),
    ((2, 2), 0),
    ((4, 3, 2, 1), 3),
])
def test_split_index(alphas, u):
    assert Signature(alphas).u == u


def test_enumerate_divisors_canonical_order():
    """First prime's exponent varies fastest: p1, p1^2, then p2, p1*p2, ..."""
    divs = lattice.enumerate_divisors(Signature((1, 1)))
    assert divs == [(0, 0), (1, 0), (0, 1), (1, 1)]
    divs = lattice.enumerate_divisors(Signature((2, 1)))
    assert divs == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]


def test_enumerate_divisors_counts():
    assert len(lattice.enumerate_divisors(Signature((1,)))) == 2
    assert len(lattice.enumerate_divisors(Signature((2, 1)))) == 6
    # the 420 lattice
    assert len(lattice.enumerate_divisors(Signature((2, 1, 1, 1)))) == 24


@given(signatures)
def test_enumerate_divisors_no_duplicates(sig):
    divs = lattice.enumerate_divisors(sig)
    assert len(divs) == len(set(divs)) == sig.divisor_count()


def test_enumerate_divisors_cap():
    # 10^6 divisors, above MAX_DIVISORS; the refusal comes before any is built
    sig = Signature((9,) * 6)
    assert sig.divisor_count() > lattice.MAX_DIVISORS
    for build in (lattice.enumerate_divisors, lattice.check_lattice_size):
        with pytest.raises(ResourceLimitError,
                           match=r"is 1000000, .*lattice\.MAX_DIVISORS"):
            build(sig)


def test_divisor_tables_share_one_tuple_of_divisors(monkeypatch):
    """The lifts and the membership set hold the same divisor objects, and
    the set is built without `radical_table`, so a patched `radical_table`
    cannot leave it corrupted in its cache."""
    sig = Signature((2, 1, 1))
    table, _ = lattice.radical_table(sig)
    assert table is lattice.divisors(sig)
    held = {id(d) for d in lattice.divisor_set(sig)}
    assert len(held) == len(table) and all(id(d) in held for d in table)
    lattice.divisor_set.cache_clear()
    monkeypatch.setattr(lattice, "radical_table", lambda s: ((), ()))
    assert lattice.divisor_set(sig) == set(lattice.enumerate_divisors(sig))


def test_squarefree_masks():
    """Every 0/1 tuple of each length up to n, keyed to its support mask."""
    masks = lattice.squarefree_masks(3)
    assert len(masks) == 1 + 2 + 4 + 8
    for d, m in masks.items():
        assert set(d) <= {0, 1} and lattice.radical(d) == m


def test_radical():
    assert lattice.radical((2, 0, 1)) == 0b101
    assert lattice.radical((0, 0, 0)) == 0
    assert lattice.radical((1, 1, 1)) == 0b111


@given(st.integers(0, 2**6 - 1))
def test_mask_divisor_round_trip(mask):
    assert lattice.radical(lattice.mask_to_divisor(mask, 6)) == mask


def test_alpha_weight_examples():
    sig = Signature((3, 2, 1))
    assert lattice.alpha_weight(0b011, sig) == 6  # alphas for p1 and p2
    assert lattice.alpha_weight(0, sig) == 1
    assert lattice.alpha_weight(0b0001, Signature((2, 1, 1, 1))) == 2


@given(signatures, st.data())
def test_alpha_weight_multiplicative(sig, data):
    full = (1 << sig.n) - 1
    a = data.draw(st.integers(0, full))
    b = data.draw(st.integers(0, full)) & ~a
    assert (lattice.alpha_weight(a | b, sig)
            == lattice.alpha_weight(a, sig) * lattice.alpha_weight(b, sig))


@given(signatures)
def test_alpha_weights_table_is_the_product_over_bits(sig):
    table = lattice.alpha_weights(sig)
    assert table == tuple(
        prod(a for i, a in enumerate(sig.alphas) if m >> i & 1)
        for m in range(1 << sig.n))
    assert lattice.alpha_weights(sig) is table


@given(signatures)
def test_alpha_weight_total(sig):
    total = sum(lattice.alpha_weight(m, sig) for m in range(1 << sig.n))
    assert total == sig.divisor_count()


@pytest.mark.parametrize("alphas,expected", [
    ((3,), 3),
    ((1, 1, 1), 4),
    ((2, 1, 1, 1), 12),
    ((2, 2), 6),
    ((3, 2, 2), 24),
])
def test_min_size_bound(alphas, expected):
    assert lattice.min_size_bound(Signature(alphas)) == expected


@given(st.integers(1, 6))
def test_min_size_bound_squarefree(n):
    assert lattice.min_size_bound(Signature((1,) * n)) == 2 ** (n - 1)


def test_factor_counts():
    assert lattice.omega((2, 0, 1)) == 2
    assert lattice.big_omega((2, 0, 1)) == 3
    assert lattice.omega((0, 0)) == lattice.big_omega((0, 0)) == 0


def test_unit_divisor_and_iter_bits():
    assert lattice.mask_to_divisor(1 << 1, 3) == (0, 1, 0)
    assert list(lattice.iter_bits(0b1011)) == [0, 1, 3]
    assert list(lattice.iter_bits(0)) == []


def test_signature_grid():
    grid = lattice.signature_grid(4, 3)
    assert len(grid) == 34
    assert len(set(grid)) == 34
    assert all(not s.was_normalized for s in grid)
    assert [s.n for s in grid] == sorted(s.n for s in grid)
    small = lattice.signature_grid(3, 2)
    assert [s.alphas for s in small] == [
        (1,), (2,), (1, 1), (2, 1), (2, 2),
        (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2),
    ]


def test_signature_grid_counts_raw_tuples():
    """The grid is the normalized image of all 120 raw exponent tuples."""
    raw = set()
    for n in range(1, 5):
        for t in itertools.product((1, 2, 3), repeat=n):
            raw.add(Signature(t))
    assert raw == set(lattice.signature_grid(4, 3))


def _grid_by_filtering(max_n, max_exp):
    """Every exponent tuple, keeping the non-increasing ones."""
    out = [Signature(t) for n in range(1, max_n + 1)
           for t in itertools.product(range(max_exp, 0, -1), repeat=n)
           if all(a >= b for a, b in zip(t, t[1:]))]
    out.sort(key=lambda s: (s.n, s.alphas))
    return out


@pytest.mark.parametrize("max_n", range(1, 6))
@pytest.mark.parametrize("max_exp", range(1, 5))
def test_signature_grid_matches_the_filtered_product(max_n, max_exp):
    grid = lattice.signature_grid(max_n, max_exp)
    assert [s.alphas for s in grid] == \
        [s.alphas for s in _grid_by_filtering(max_n, max_exp)]
    # one signature per multiset of k exponents from 1..max_exp
    assert len(grid) == sum(comb(max_exp + k - 1, k)
                            for k in range(1, max_n + 1))


def test_signature_grid_builds_only_its_signatures():
    """The 6/12 grid holds 18563 signatures out of 12^6 + ... raw tuples;
    it is built without walking the raw tuples."""
    start = time.perf_counter()
    grid = lattice.signature_grid(6, 12)
    assert len(grid) == 18563 == sum(comb(12 + k - 1, k) for k in range(1, 7))
    assert time.perf_counter() - start < 1.0


def test_display_helpers():
    assert lattice.first_primes(4) == (2, 3, 5, 7)
    assert lattice.display_value((2, 1, 0, 1), (2, 3, 5, 7)) == 4 * 3 * 7
    assert lattice.format_divisor((2, 0, 1)) == "p1^2*p3"
    assert lattice.format_divisor((0, 0)) == "1"


def test_factor_int():
    sig, primes = lattice.factor_int(420)
    assert sig.alphas == (2, 1, 1, 1)
    assert primes == (2, 3, 5, 7)
    sig, primes = lattice.factor_int(450)  # 2 * 3^2 * 5^2
    assert sig.alphas == (2, 2, 1)
    assert primes == (3, 5, 2)
    sig, primes = lattice.factor_int(97)
    assert sig.alphas == (1,)
    assert primes == (97,)
    with pytest.raises(ValueError):
        lattice.factor_int(1)
    with pytest.raises(ValueError):
        lattice.factor_int(2**63 + 1)


def _factor_by_trial_division(value):
    """Prime -> exponent, by trial division up to the square root."""
    out, d = {}, 2
    while d * d <= value:
        while value % d == 0:
            out[d] = out.get(d, 0) + 1
            value //= d
        d += 1
    if value > 1:
        out[value] = out.get(value, 0) + 1
    return out


def _factored(value):
    sig, primes = lattice.factor_int(value)
    return dict(zip(primes, sig.alphas))


def _random_prime(rng, low, high):
    while True:
        p = rng.randrange(low, high)
        if _factor_by_trial_division(p) == {p: 1}:
            return p


def test_factor_int_agrees_with_trial_division():
    for value in range(2, 5000):
        assert _factored(value) == _factor_by_trial_division(value), value
    rng = random.Random(20)
    for _ in range(30):
        value = rng.randrange(2, 2**32)
        assert _factored(value) == _factor_by_trial_division(value), value


def test_factor_int_settles_a_cofactor_above_the_trial_limit():
    """Past trial division the cofactor is a prime or a prime square; the
    primes above 2^21 here are found by trial division."""
    rng = random.Random(21)
    for _ in range(10):
        small = rng.randrange(1, 2**10)
        big = _random_prime(rng, 2**21, 2**26)
        for power in (1, 2):
            value = small * big ** power
            want = _factor_by_trial_division(small)
            want[big] = power
            assert _factored(value) == want, value


def test_factor_int_on_large_primes():
    start = time.perf_counter()
    # the largest prime below 2^63
    assert _factored(9223372036854775783) == {9223372036854775783: 1}
    sig, primes = lattice.factor_int((2**31 - 1) ** 2)
    assert (str(sig), primes) == ("2", (2**31 - 1,))
    assert time.perf_counter() - start < 5.0


def test_factor_int_refuses_two_large_distinct_primes():
    with pytest.raises(ValueError, match="--sig"):
        lattice.factor_int(2147483629 * 2147483647)


@given(st.integers(0, 1 << 300))
def test_set_bits_are_those_of_iter_bits(x):
    assert lattice.set_bits(x) == tuple(lattice.iter_bits(x))


@given(st.integers(0, 1 << 300), st.integers(0, 320))
def test_reverse_bits_reads_the_low_bits_backwards(x, width):
    x &= (1 << width) - 1
    assert lattice.reverse_bits(x, width) == sum(
        1 << (width - 1 - i) for i in range(width) if x >> i & 1)


@given(st.integers(0, 1 << 300), st.integers(0, 320))
@example(5, 2)
def test_reverse_bits_ignores_the_bits_above_the_width(x, width):
    """x is not masked first: reverse_bits(5, 2) reads the low bits 01 of
    101 backwards, which is 2."""
    assert lattice.reverse_bits(x, width) == sum(
        1 << (width - 1 - i) for i in range(width) if x >> i & 1)


@given(st.integers(0, (1 << 10) - 1))
@example(0b101)
@example(0b10110)
def test_subsets_are_those_of_the_comprehension(mask):
    assert lattice.subsets(mask) == sum(
        1 << y for y in range(mask + 1) if not y & ~mask)


@st.composite
def grounds_and_families(draw):
    """A ground mask on at most 7 elements, contiguous or not, and any
    family of its subsets as one int over the masks."""
    ground = draw(st.sampled_from([0b101, 0b10110]) | st.integers(0, 127))
    subs = [y for y in range(ground + 1) if not y & ~ground]
    members = draw(st.sets(st.sampled_from(subs)))
    return ground, sum(1 << m for m in members)


@given(grounds_and_families())
def test_covers_are_those_of_the_comprehension(case):
    ground, bits = case
    assert lattice.covers(bits, ground) == sum({
        1 << (m | 1 << i) for m in range(ground + 1) if bits >> m & 1
        for i in range(ground.bit_length())
        if ground >> i & 1 and not m >> i & 1})


def _meet_rows_pairwise(rads):
    """Reference: the meet graph with every pair of vertices tested."""
    rows = [0] * len(rads)
    for i in range(len(rads)):
        for j in range(i + 1, len(rads)):
            if rads[i] & rads[j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


@given(st.lists(st.integers(0, 255), max_size=40))
@example([])
@example([0, 0, 1])
def test_meet_rows_are_those_of_the_pairwise_loop(rads):
    assert lattice.meet_rows(rads) == _meet_rows_pairwise(rads)


@pytest.mark.parametrize("max_n,max_exp", [
    (6, 24), (8000, 8000), (10 ** 6, 1), (1, 50001), (10 ** 6, 10 ** 6)])
def test_signature_grid_refuses_past_its_cap_before_building(
        monkeypatch, max_n, max_exp):
    """C(6 + 24, 6) - 1 = 593774 signatures, and grids whose size has
    thousands of digits: refused at once, with no signature built and the
    size never written out."""
    def boom(*args):
        raise AssertionError("a signature of the grid was built")

    monkeypatch.setattr(lattice, "Signature", boom)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as exc:
        lattice.signature_grid(max_n, max_exp)
    assert str(exc.value) == (
        "the number of signatures in the grid exceeds the cap of "
        "50000 (lattice.GRID_CAP, a fixed constant)")
    assert time.perf_counter() - start < 1.0
    assert comb(max_n + max_exp, min(max_n, max_exp, 6)) - 1 > lattice.GRID_CAP


@pytest.mark.parametrize("max_n,max_exp", [(6, 12), (1, 50000)])
def test_signature_grid_admits_grids_at_or_under_its_cap(max_n, max_exp):
    """The largest grid of the tests and the benchmark, and a grid of
    exactly GRID_CAP signatures."""
    assert len(lattice.signature_grid(max_n, max_exp)) == (
        comb(max_n + max_exp, max_n) - 1) <= lattice.GRID_CAP
