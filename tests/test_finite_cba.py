import collections
import itertools
import random

import pytest
from hypothesis import given, strategies as st

from forcebench.errors import ImproperFilter
from forcebench.finite_cba import (
    ByteRows,
    FilterSpec,
    FiniteCBA,
    Restriction,
    atom_map,
    byte_rows,
    format_element,
    parse_element,
    quotient_by_filter,
    ultrafilters,
)

from .oracles import packed_row


def test_constants_and_order():
    b = FiniteCBA(3)
    assert b.zero == 0
    assert b.one == 0b111
    assert b.leq(0b001, 0b011)
    assert not b.leq(0b011, 0b001)
    assert b.neg(0b101) == 0b010


def test_lattice_axioms_exhaustive_small():
    # exhaustive on <= 4 atoms, per the stated audit regime
    for n in range(0, 4):
        b = FiniteCBA(n)
        for x, y, z in itertools.product(b.elements(), repeat=3):
            assert b.join(x, y) == b.join(y, x)
            assert b.meet(x, y) == b.meet(y, x)
            assert b.join(x, b.meet(y, z)) == b.meet(b.join(x, y), b.join(x, z))
            assert b.meet(x, b.join(y, z)) == b.join(b.meet(x, y), b.meet(x, z))
            assert b.join(x, b.neg(x)) == b.one
            assert b.meet(x, b.neg(x)) == 0


def test_sup_inf_over_subsets_4_atoms():
    b = FiniteCBA(4)
    elements = list(b.elements())
    rng = random.Random(7)
    for _ in range(300):
        subset = rng.sample(elements, rng.randint(0, 6))
        s, i = b.sup(subset), b.inf(subset)
        for x in subset:
            assert b.leq(x, s) and b.leq(i, x)
        # least upper bound / greatest lower bound against every candidate
        for cand in elements:
            if all(b.leq(x, cand) for x in subset):
                assert b.leq(s, cand)
            if all(b.leq(cand, x) for x in subset):
                assert b.leq(cand, i)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_lattice_laws_randomized(n, data):
    b = FiniteCBA(n)
    x = data.draw(st.integers(min_value=0, max_value=b.one))
    y = data.draw(st.integers(min_value=0, max_value=b.one))
    assert b.neg(b.neg(x)) == x
    assert b.neg(b.join(x, y)) == b.meet(b.neg(x), b.neg(y))
    assert b.leq(x, y) == (b.meet(x, b.neg(y)) == 0)


def test_b_plus_is_separative():
    # for p not<= q there is r <= p incompatible with q; brute force <= 4 atoms
    for n in range(1, 5):
        b = FiniteCBA(n)
        for p, q in itertools.product(b.nonzero_elements(), repeat=2):
            if not b.leq(p, q):
                assert any(
                    b.leq(r, p) and r & q == 0 for r in b.nonzero_elements()
                )


def test_ultrafilters_count_and_dichotomy():
    for n in (1, 3):
        b = FiniteCBA(n)
        us = ultrafilters(b)
        assert len(us) == n
        for u in us:
            for x in b.elements():
                assert u.contains(x) != u.contains(b.neg(x))


def test_single_atom_ultrafilter_contains_only_one():
    b = FiniteCBA(1)
    (u,) = ultrafilters(b)
    assert list(u.members()) == [1]


def test_ultrafilter_closed_under_meets_of_subsets():
    # meets of arbitrary member subsets stay inside; exhaustive on <= 4 atoms
    for n in range(1, 5):
        b = FiniteCBA(n)
        for u in ultrafilters(b):
            members = list(u.members())
            for r in range(1, min(len(members), 3) + 1):
                for sub in itertools.combinations(members, r):
                    assert u.contains(b.inf(sub))


def test_basic_open_complement_is_closed():
    # N_b, the atoms whose ultrafilters contain b, is the bitmask b itself:
    # N_b and N_not_b partition the Stone space
    b = FiniteCBA(3)
    for x in b.elements():
        assert x | b.neg(x) == b.one
        assert x & b.neg(x) == 0


def test_format_parse_roundtrip():
    b = FiniteCBA(4)
    for x in b.elements():
        assert parse_element(b, format_element(b, x)) == x
    assert format_element(b, 0) == "{}"
    assert format_element(b, 0b101) == "{0,2}"


def test_quotient_principal_filter_two_atoms():
    b = FiniteCBA(2)
    spec = FilterSpec(b, frozenset({0b01}))
    view, cls = quotient_by_filter(b, spec)
    assert view.algebra.atom_count == 1
    assert cls(0b01) == 1 and cls(0b10) == 0


def test_quotient_four_atoms_pair_filter():
    b = FiniteCBA(4)
    spec = FilterSpec(b, frozenset({0b0011}))
    view, cls = quotient_by_filter(b, spec)
    assert view.algebra.atom_count == 2
    assert view.atom_of_sub == (0, 1)
    # classes agree exactly when symmetric difference avoids the core
    for x, y in itertools.product(b.elements(), repeat=2):
        assert (cls(x) == cls(y)) == ((x ^ y) & 0b0011 == 0)


def test_quotient_trivial_filter_is_identity():
    b = FiniteCBA(3)
    spec = FilterSpec(b, frozenset({b.one}))
    view, cls = quotient_by_filter(b, spec)
    assert view.algebra.atom_count == 3
    assert all(cls(x) == x for x in b.elements())


def test_improper_filter_rejected():
    b = FiniteCBA(2)
    with pytest.raises(ImproperFilter):
        FilterSpec(b, frozenset({0b01, 0b10}))


def test_ideal_quotient():
    b = FiniteCBA(3)
    spec = FilterSpec(b, frozenset({0b001}), kind="ideal")
    view, cls = quotient_by_filter(b, spec)
    assert view.algebra.atom_count == 2
    assert cls(0b001) == 0


def test_restriction_roundtrip():
    b = FiniteCBA(5)
    view = Restriction(b, 0b10110)
    for x in view.algebra.elements():
        assert view.to_sub(view.from_sub(x)) == x
    for x in b.elements():
        assert view.from_sub(view.to_sub(x)) == x & 0b10110
    # the class table: to_sub at every parent element, computed once
    assert view.to_sub_table == tuple(map(view.to_sub, b.elements()))
    assert view.to_sub_table is view.to_sub_table


def test_restriction_sub_of_atom_is_read_only():
    # views may be shared between audits, so nothing they hold can change
    view = Restriction(FiniteCBA(5), 0b10110)
    assert view.sub_of_atom == {1: 0, 2: 1, 4: 2}
    with pytest.raises(TypeError):
        view.sub_of_atom[0] = 3
    assert view.sub_of_atom == {1: 0, 2: 1, 4: 2}


# every straight-line closure (1 to 8 byte tables) and the loop above 8 bytes
@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 24, 32, 40, 48, 56, 63, 64, 65, 72])
def test_atom_map_matches_bit_loop(width):
    rng = random.Random(width)
    images = [rng.getrandbits(70) for _ in range(width)]
    mapped = atom_map(images)
    assert (mapped.__name__ == "mapped") == (width > 64)  # one expression up to 8 bytes

    def by_bits(x):
        out = 0
        for k in range(width):
            if x >> k & 1:
                out |= images[k]
        return out

    xs = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(200)]
    # bits past the width are ignored
    xs += [x | rng.getrandbits(12) << width for x in xs[:50]]
    for x in xs:
        assert mapped(x) == by_bits(x), (width, x)


@pytest.mark.parametrize("width", [65, 71, 128, 513, 1000, 4096])
def test_wide_atom_map_matches_a_bit_by_bit_join(width):
    # the loop above 8 tables reads x's low bytes at once and skips the zero ones
    rng = random.Random(width)
    images = [rng.getrandbits(width) for _ in range(width)]
    mapped = atom_map(images)

    def by_bits(x):
        out = 0
        for k in range(width):
            if x >> k & 1:
                out |= images[k]
        return out

    sparse = [sum(1 << rng.randrange(width) for _ in range(count)) for count in (1, 2, 5, 30)]
    base = 8 * ((width - 1) // 8)  # the first atom of the last table
    xs = [0, (1 << width) - 1, (1 << width) - (1 << base), 0xFF << 64, *sparse]
    xs += [rng.getrandbits(width) for _ in range(20)]
    # bits past len(images) are ignored
    xs += [x | rng.getrandbits(70) << width for x in xs]
    for x in xs:
        assert mapped(x) == by_bits(x), (width, x)


def _hom_table(atoms, rng):
    """The images of a random atom map on every element of a t-atom algebra."""
    images = [1 << rng.randrange(6) for _ in range(atoms)]
    mapped = atom_map(images)
    return [mapped(x) for x in range(1 << atoms)]


@pytest.mark.parametrize("atoms", range(7))
def test_byte_rows_hold_the_table_at_every_join_and_meet(atoms):
    rng = random.Random(atoms)
    size = 1 << atoms
    tables = [[rng.randrange(256) for _ in range(size)] for _ in range(20)]
    tables += [_hom_table(atoms, rng) for _ in range(20)]
    for values in tables:
        rows = ByteRows(values)
        assert rows.packed == packed_row(values, lambda d: d)
        for c in range(size):
            assert rows.join_row(c) == packed_row(values, lambda d: c | d), (values, c)
            assert rows.meet_row(c) == packed_row(values, lambda d: c & d), (values, c)


@pytest.mark.parametrize("atoms", range(7))
def test_byte_row_laws_are_the_pairwise_laws(atoms):
    rng = random.Random(100 + atoms)
    size = 1 << atoms
    pairs = [(c, d) for c in range(size) for d in range(size)]
    homs = [_hom_table(atoms, rng) for _ in range(10)]
    # each hom table wrong at one element, and random tables
    planted = [
        t[:x] + [t[x] ^ 1 << rng.randrange(8)] + t[x + 1 :] for t in homs for x in range(size)
    ]
    noise = [[rng.randrange(256) for _ in range(size)] for _ in range(10)]
    for values in homs + planted + noise:
        rows = ByteRows(values)
        joins = all(values[c | d] == values[c] | values[d] for c, d in pairs)
        sub_meets = all(not values[c & d] & ~(values[c] & values[d]) for c, d in pairs)
        assert rows.preserves_joins() == joins
        assert rows.monotone() == sub_meets
        for x in (0, size - 1, rng.randrange(size), -1, size | 1):
            for b in (0, 0xFF, values[size - 1], rng.randrange(256)):
                meets = all(values[d & x] == values[d] & b for d in range(size))
                assert rows.translates_meet(x, b) == meets


def _law_tables(atoms, rng):
    """Hom tables; each with f(0) = 0x40 (joins still hold); those with the
    0x40 dropped at one c > 0 (not monotone); each hom with a join broken at
    the top (still monotone); and noise."""
    size = 1 << atoms
    homs = [_hom_table(atoms, rng) for _ in range(10)]
    raised = [[v | 0x40 for v in t] for t in homs]  # f(0) = 0x40: every f(c) >= f(0)
    some = [rng.sample(range(1, size), min(size - 1, 3)) for _ in raised]  # up to 3 c > 0
    lowered = [t[:x] + [t[x] & ~0x40] + t[x + 1 :] for t, xs in zip(raised, some) for x in xs]
    broken = [t[:-1] + [t[-1] | 0x80] for t in homs]  # no image holds 0x80
    noise = [[rng.randrange(256) for _ in range(size)] for _ in range(10)]
    return homs + raised + lowered + broken + noise


@pytest.mark.parametrize("atoms", range(7))
def test_byte_row_laws_agree_with_pair_scans(atoms):
    rng = random.Random(300 + atoms)
    size = 1 << atoms
    pairs = list(itertools.product(range(size), repeat=2))
    verdicts = collections.Counter()
    for values in _law_tables(atoms, rng):
        rows = ByteRows(values)
        joins = all(values[c | d] == values[c] | values[d] for c, d in pairs)
        sub_meets = all(not values[c & d] & ~(values[c] & values[d]) for c, d in pairs)
        monotone = all(not values[c] & ~values[d] for c, d in pairs if not c & ~d)
        assert rows.preserves_joins() == joins, values
        assert rows.monotone() == sub_meets == monotone, values
        verdicts[joins, monotone] += 1
        for x in (0, size - 1, rng.randrange(size)):
            for b in (0, values[x], values[-1], rng.randrange(256)):
                meets = all(values[d & x] == values[d] & b for d in range(size))
                assert rows.translates_meet(x, b) == meets, (values, x, b)
                verdicts["meets", meets] += 1
    assert verdicts[True, True] >= 20  # the hom tables, raised or not
    if atoms:  # f(0) = 0x40 lowered at one c > 0
        assert verdicts[False, False] >= 10
    if atoms > 1:  # a monotone table with one join broken: c, d of the top
        assert verdicts[False, True] >= 10
    assert verdicts["meets", True] and verdicts["meets", False]


@pytest.mark.parametrize("atoms", range(7))
def test_byte_rows_select_and_join_below_as_a_walk_does(atoms):
    rng = random.Random(200 + atoms)
    size = 1 << atoms
    covers = [(d, d | 1 << a) for d in range(size) for a in range(atoms)]
    homs = [_hom_table(atoms, rng) for _ in range(10)]
    # each hom table wrong at one element, and random tables
    planted = [
        t[:x] + [t[x] ^ 1 << rng.randrange(8)] + t[x + 1 :] for t in homs for x in range(size)
    ]
    noise = [[rng.randrange(256) for _ in range(size)] for _ in range(10)]
    for values in homs + planted + noise:
        rows = ByteRows(values)
        assert rows.monotone() == all(not values[d] & ~values[e] for d, e in covers)
        # bounds past a byte, or negative, select as their low byte does
        low = rng.randrange(256)
        for b in (0, 0xFF, values[-1], low, 256 | low, -256 | low):
            below = bytes(0 if values[d] & ~b else 0xFF for d in range(size))
            assert rows.at_most(b) == int.from_bytes(below, "little"), (values, b)
        row = rng.getrandbits(8 * size).to_bytes(size, "little")
        joins = [0] * size
        for d, e in itertools.product(range(size), repeat=2):
            if not e & ~d:
                joins[d] |= row[e]
        got = rows.subset_joins(int.from_bytes(row, "little"))
        assert got == int.from_bytes(bytes(joins), "little"), (values, row)


def test_byte_rows_only_pack_bytes():
    rows = byte_rows([0, 1, 2, 3])  # the identity on two atoms
    assert rows.preserves_joins() and rows.translates_meet(1, 1)
    assert rows.monotone() and rows.subset_joins(rows.packed) == rows.packed
    assert rows.at_most(256 | 1) == rows.at_most(1) == 0xFF_FF  # f(d) <= 1 at d = 0, 1
    for values in ([0, 1, 256, 3], [0, -1, 2, 3], [0, 1, None, 3]):
        assert byte_rows(values) is None
    # a bound outside a byte is never a pass
    assert not rows.translates_meet(1, 256 | 1)
