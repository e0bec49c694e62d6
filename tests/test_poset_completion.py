import dataclasses
import itertools
import json
import random
import re

import pytest

from forcebench.errors import ValidationError
from forcebench.finite_cba import FiniteCBA
from forcebench.poset import Poset, boolean_completion
from forcebench.workspace import parse_workspace

from .oracles import (
    dense_image_by_scan,
    is_separative,
    reference_closure,
    separative_quotient,
    star_equiv_classes_of_singletons,
    star_leq,
)


def two_chain():
    return Poset.from_pairs(["a", "b"], [("a", "b")])


def reversed_tree_height2():
    # root above two incomparable leaves
    return Poset.from_pairs(["r", "l0", "l1"], [("l0", "r"), ("l1", "r")])


def antichain(n):
    return Poset.from_pairs([f"a{k}" for k in range(n)], [])


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset(("a", "b"), frozenset({("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}))
    with pytest.raises(ValueError):
        Poset(("a",), frozenset())  # not reflexive


def _order(*pairs):
    return frozenset(pairs)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Poset(("a", "a"), _order(("a", "a"))), "duplicate poset elements"),
        (lambda: Poset.from_pairs(["a", "b", "a"], []), "duplicate poset elements"),
        (lambda: Poset(("a",), _order(("a", "a"), ("a", "b"))),
         "relation pair ('a', 'b') outside the element set"),
        (lambda: Poset.from_pairs(["a"], [("z", "a")]),
         "relation pair ('z', 'a') outside the element set"),
        (lambda: Poset(("a", "b"), _order(("a", "a"))), "order not reflexive at 'b'"),
        (lambda: Poset(("a", "b"), _order(("a", "a"), ("b", "b"), ("a", "b"), ("b", "a"))),
         "order not antisymmetric on 'b', 'a'"),
        (lambda: Poset.from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
         "order not antisymmetric on 'b', 'a'"),
        (lambda: Poset(("a", "b", "c"), _order(*[(x, x) for x in "abc"], ("a", "b"), ("b", "c"))),
         "order not transitive: 'a' <= 'b' <= 'c'"),
    ],
    ids=[
        "duplicate", "duplicate-from-pairs", "outside", "outside-from-pairs", "not-reflexive",
        "not-antisymmetric", "cycle-from-pairs", "not-transitive",
    ],
)
def test_poset_validation_names_the_defect(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


def _named_cycle(message, elements):
    """The indices of the pair an antisymmetry failure names, lower first."""
    p, q = re.fullmatch(r"order not antisymmetric on '(.+)', '(.+)'", message).groups()
    return elements.index(q), elements.index(p)


def test_from_pairs_closes_as_warshall_does():
    # every set of pairs, cycles included, on up to 4 elements, then seeded
    # random cover sets on up to 40 elements that follow a shuffled order, not
    # the index order: the topological closure keeps Warshall's masks, and a
    # cycle names its lowest element and the next-lowest one that lies on it
    cases = []
    for n in range(1, 5):
        labels = [f"p{k}" for k in range(n)]
        ordered = [(a, b) for a in labels for b in labels if a != b]
        for bits in range(1 << len(ordered)):
            cases.append((labels, [pair for k, pair in enumerate(ordered) if bits >> k & 1]))
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(2, 40)
        labels = [f"r{k}" for k in range(n)]
        rank = rng.sample(labels, n)
        covers = [sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        cases.append((labels, [(rank[i], rank[j]) for i, j in covers]))
    orders = 0
    for labels, pairs in cases:
        downs, ups = reference_closure(labels, pairs)
        if any(d & u & ~(1 << k) for k, (d, u) in enumerate(zip(downs, ups))):
            with pytest.raises(ValueError) as raised:
                Poset.from_pairs(labels, pairs)
            q, p = _named_cycle(str(raised.value), labels)
            assert downs[q] >> p & 1 and ups[q] >> p & 1 and q < p
            continue
        poset = Poset.from_pairs(labels, pairs)
        assert (poset.downs, poset.ups) == (tuple(downs), tuple(ups)), (labels, pairs)
        orders += 1
    assert orders == 1 + 3 + 25 + 543 + 200  # the labelled acyclic digraphs, then the random ones


def test_two_disjoint_cycles_name_a_pair_on_one_of_them():
    elements = ["c", "a", "e", "b", "d"]
    pairs = [("a", "b"), ("b", "a"), ("c", "d"), ("d", "e"), ("e", "c")]
    with pytest.raises(ValueError) as raised:
        Poset.from_pairs(elements, pairs)
    named = {elements[k] for k in _named_cycle(str(raised.value), elements)}
    assert named <= {"a", "b"} or named <= {"c", "d", "e"}
    doc = {"version": 1, "audits": [], "objects": [
        {"kind": "poset", "name": "P", "elements": elements, "order": [list(p) for p in pairs]}
    ]}
    with pytest.raises(ValidationError) as parsed:
        parse_workspace(json.dumps(doc))
    assert parsed.value.obj == "P"
    assert parsed.value.reason == str(raised.value)


def _planted(completion, **images):
    return dataclasses.replace(completion, embedding={**completion.embedding, **images})


@pytest.mark.parametrize(
    "defect, failing",
    [
        # the root and a leaf swap images: two leaves now sit outside the
        # root's image, and the leaf that took the root's image meets the other
        (lambda: _planted(boolean_completion(reversed_tree_height2()), r=0b01, l0=0b11),
         {"order_preserving", "incompatibility_preserving"}),
        # a above x and b above y: a's image merged with b's meets it
        (lambda: _planted(boolean_completion(Poset.from_pairs(
            ["x", "y", "a", "b"], [("x", "a"), ("y", "b")])), a=0b11),
         {"incompatibility_preserving"}),
        # the same past 64 elements: x, y, z and 67 elements above x, the
        # last of which meets z's image
        (lambda: _planted(boolean_completion(Poset.from_pairs(
            ["x", "y", "z"] + [f"u{k}" for k in range(67)], [("x", f"u{k}") for k in range(67)]
        )), u66=0b101), {"incompatibility_preserving"}),
        # the bottom of a two-chain sent to zero
        (lambda: _planted(boolean_completion(two_chain()), a=0), {"image_in_b_plus"}),
        # a third atom that no image lies below
        (lambda: dataclasses.replace(boolean_completion(antichain(2)), algebra=FiniteCBA(3)),
         {"dense_image"}),
    ],
    ids=[
        "swapped-images", "merged-incompatible-pair", "merged-pair-past-64-elements", "zero-image",
        "image-missing-an-atom",
    ],
)
def test_planted_completion_defect_fails_its_condition(defect, failing):
    checks = defect().audit()
    assert list(checks) == [
        "order_preserving", "incompatibility_preserving", "dense_image", "image_in_b_plus",
    ]
    assert {name for name, ok in checks.items() if not ok} == failing


def test_dense_contains_maximal_antichain_and_predense():
    # brute force over every poset on <= 4 elements embedded in a linear extension
    labels = ["p0", "p1", "p2", "p3"]
    for n in range(1, 5):
        elems = labels[:n]
        idx_pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        for bits in range(1 << len(idx_pairs)):
            pairs = [
                (elems[i], elems[j])
                for k, (i, j) in enumerate(idx_pairs)
                if bits >> k & 1
            ]
            try:
                p = Poset.from_pairs(elems, pairs)
            except ValueError:
                continue
            subsets = [
                frozenset(c)
                for r in range(1, n + 1)
                for c in itertools.combinations(elems, r)
            ]
            for d in subsets:
                if p.is_dense(d):
                    assert any(
                        p.is_maximal_antichain(a) for a in subsets if a <= d
                    )
            for a in subsets:
                if p.is_maximal_antichain(a):
                    assert p.is_predense(a)


def test_order_questions_match_their_definitions_on_small_posets():
    # every poset on 4 elements embedded in a linear extension: each answer
    # read from the masks against its definition over the pairs of the
    # reference closure
    labels = ["p0", "p1", "p2", "p3"]
    idx_pairs = [(i, j) for i in range(4) for j in range(4) if i < j]
    subsets = [frozenset(c) for r in range(5) for c in itertools.combinations(labels, r)]
    for bits in range(1 << len(idx_pairs)):
        pairs = [(labels[i], labels[j]) for k, (i, j) in enumerate(idx_pairs) if bits >> k & 1]
        p = Poset.from_pairs(labels, pairs)
        downs, _ = reference_closure(labels, pairs)
        rel = {(r, q) for q, d in zip(labels, downs) for k, r in enumerate(labels) if d >> k & 1}

        def compatible(a, b):
            return any((r, a) in rel and (r, b) in rel for r in labels)

        for a, b in itertools.product(labels, repeat=2):
            assert p.leq(a, b) == ((a, b) in rel)
            assert (p.compat[p.index[a]] >> p.index[b] & 1 == 1) == compatible(a, b)
        assert p.minimal_elements() == tuple(
            a for a in labels if all((b, a) not in rel or b == a for b in labels)
        )
        for sub in subsets:
            down = frozenset(r for r in labels if any((r, q) in rel for q in sub))
            up = frozenset(r for r in labels if any((q, r) in rel for q in sub))
            assert (p.down(sub), p.up(sub)) == (down, up)
            assert p.is_dense(sub) == (up == frozenset(labels))
            antichain = not any(compatible(a, b) for a, b in itertools.combinations(sub, 2))
            assert p.is_antichain(sub) == antichain
            assert p.is_maximal_antichain(sub) == (
                antichain and all(any(compatible(a, q) for q in sub) for a in labels)
            )
        assert p.down({"p3"}) == frozenset(r for r in labels if (r, "p3") in rel)


def test_separative_quotient_antichain_identity():
    p = antichain(2)
    sq = separative_quotient(p)
    assert len(sq.quotient.elements) == 2


def test_separative_quotient_chain_collapses():
    p = two_chain()
    sq = separative_quotient(p)
    assert len(sq.quotient.elements) == 1
    # oracle: brute-force <=* computation over all subsets
    classes = star_equiv_classes_of_singletons(p)
    assert classes["a"] == classes["b"] == frozenset({"a", "b"})


def test_separative_quotient_tree_identity():
    p = reversed_tree_height2()
    sq = separative_quotient(p)
    assert len(sq.quotient.elements) == 3
    classes = star_equiv_classes_of_singletons(p)
    assert all(classes[e] == frozenset({e}) for e in p.elements)


def test_quotient_agrees_with_star_oracle_on_small_posets():
    labels = ["p0", "p1", "p2", "p3"]
    idx_pairs = [(i, j) for i in range(4) for j in range(4) if i < j]
    seen = 0
    for bits in range(1 << len(idx_pairs)):
        pairs = [(labels[i], labels[j]) for k, (i, j) in enumerate(idx_pairs) if bits >> k & 1]
        try:
            p = Poset.from_pairs(labels, pairs)
        except ValueError:
            continue
        seen += 1
        sq = separative_quotient(p)
        oracle = star_equiv_classes_of_singletons(p)
        for a, b in itertools.product(p.elements, repeat=2):
            assert (sq.projection[a] == sq.projection[b]) == (oracle[a] == oracle[b])
        assert is_separative(sq.quotient)
    assert seen == 64  # every orientation of the 6 index pairs closes to a poset


def test_completion_singleton_poset():
    c = boolean_completion(Poset.from_pairs(["p"], []))
    assert c.algebra.atom_count == 1
    assert c.embedding["p"] == 1


def test_completion_reversed_tree():
    c = boolean_completion(reversed_tree_height2())
    assert c.algebra.atom_count == 2
    audit = c.audit()
    assert all(audit.values()), audit
    # the two leaves are the atoms; the root is their join
    assert c.embedding["r"] == c.algebra.one
    assert {c.embedding["l0"], c.embedding["l1"]} == {0b01, 0b10}


def test_completion_three_antichain():
    c = boolean_completion(antichain(3))
    assert c.algebra.atom_count == 3
    assert all(c.audit().values())


def test_completion_of_two_chain():
    c = boolean_completion(two_chain())
    assert c.algebra.atom_count == 1
    assert c.embedding["a"] == c.embedding["b"] == 1


def test_completion_audit_on_every_small_poset():
    # the three embedding conditions hold on every constructed completion
    labels = ["p0", "p1", "p2", "p3"]
    idx_pairs = [(i, j) for i in range(4) for j in range(4) if i < j]
    for bits in range(1 << len(idx_pairs)):
        pairs = [(labels[i], labels[j]) for k, (i, j) in enumerate(idx_pairs) if bits >> k & 1]
        try:
            p = Poset.from_pairs(labels, pairs)
        except ValueError:
            continue
        c = boolean_completion(p)
        assert all(c.audit().values())
        # complete's size estimate: one completion atom per minimal element
        assert c.algebra.atom_count == len(p.minimal_elements())


def _small_posets(largest=4):
    """Every poset on 1 to ``largest`` elements that a linear extension p0 < p1 < .. allows."""
    labels = [f"p{k}" for k in range(largest)]
    for n in range(1, largest + 1):
        idx_pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        for bits in range(1 << len(idx_pairs)):
            pairs = [(labels[i], labels[j]) for k, (i, j) in enumerate(idx_pairs) if bits >> k & 1]
            try:
                yield Poset.from_pairs(labels[:n], pairs)
            except ValueError:
                continue


def _atom_columns(p, atom_count, holds):
    """For each atom, the elements whose image holds it; two embeddings agree
    up to an atom permutation exactly when these lists agree once sorted."""
    return sorted(sorted(e for e in p.elements if holds(e, a)) for a in range(atom_count))


def test_completion_is_the_completion_of_the_separative_quotient():
    # every order on 1 to 5 elements: the completion read off the separative
    # quotient has an atom per minimal class, and sends p to the minimal
    # classes below its class
    orders = 0
    for p in _small_posets(5):
        sq = separative_quotient(p)
        q = sq.quotient
        minimal = q.minimal_elements()
        c = boolean_completion(p)
        assert c.algebra.atom_count == len(minimal)
        assert _atom_columns(p, len(minimal), lambda e, a: c.embedding[e] >> a & 1) == (
            _atom_columns(p, len(minimal), lambda e, a: q.leq(minimal[a], sq.projection[e]))
        )
        orders += 1
    assert orders == 1099


def test_dense_image_by_atoms_matches_the_scan():
    planted = 0
    for p in _small_posets():
        c = boolean_completion(p)
        assert c.audit()["dense_image"] and dense_image_by_scan(c)
        k = c.algebra.atom_count
        for a in range(k):  # atom a is no image: it grows into a's neighbour, or to 0
            grown = (1 << a | 1 << (a + 1) % k) if k > 1 else 0
            images = {e: grown if x == 1 << a else x for e, x in c.embedding.items()}
            missed = dataclasses.replace(c, embedding=images)
            assert missed.audit()["dense_image"] is dense_image_by_scan(missed) is False
            planted += 1
    assert planted > 100
    # random images, some past the algebra, on antichains of 1 to 4 elements
    rng, verdicts = random.Random(6), set()
    for _ in range(2000):
        n, k = rng.randint(1, 4), rng.randint(0, 4)
        c = boolean_completion(antichain(n))
        images = {e: rng.getrandbits(k + 1) & rng.getrandbits(k + 1) for e in c.embedding}
        c = dataclasses.replace(c, algebra=FiniteCBA(k), embedding=images)
        verdicts.add(dense := c.audit()["dense_image"])
        assert dense is dense_image_by_scan(c), (k, images)
    assert verdicts == {True, False}


def test_completion_density_matches_star_oracle_on_tree():
    # classes of singletons under the full-powerset <=* relation match the
    # embedding images on the tree example
    p = reversed_tree_height2()
    c = boolean_completion(p)
    assert star_leq(p, frozenset({"l0"}), frozenset({"r"}))
    assert not star_leq(p, frozenset({"r"}), frozenset({"l0"}))
    assert c.algebra.leq(c.embedding["l0"], c.embedding["r"])
    assert not c.algebra.leq(c.embedding["r"], c.embedding["l0"])
