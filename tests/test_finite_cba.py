import itertools
import random

import pytest
from hypothesis import given, strategies as st

from forcebench.errors import ImproperFilter
from forcebench.finite_cba import (
    FilterSpec,
    FiniteCBA,
    Restriction,
    atom_map,
    basic_open,
    format_element,
    parse_element,
    quotient_by_filter,
    ultrafilters,
)


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
    # N_b and N_not_b partition the Stone space
    b = FiniteCBA(3)
    space = frozenset(range(3))
    for x in b.elements():
        assert basic_open(b, x) | basic_open(b, b.neg(x)) == space
        assert basic_open(b, x) & basic_open(b, b.neg(x)) == frozenset()


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
    spec = FilterSpec(b, frozenset({0b01, 0b10}), allow_improper=True)
    with pytest.raises(ImproperFilter):
        quotient_by_filter(b, spec)


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


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 16, 17, 64])
def test_atom_map_matches_bit_loop(width):
    rng = random.Random(width)
    images = [rng.getrandbits(70) for _ in range(width)]
    mapped = atom_map(images)

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
