import itertools

import pytest

from forcebench.poset import Poset, boolean_completion, separative_quotient

from .oracles import is_separative, star_equiv_classes_of_singletons, star_leq


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


def test_completion_density_matches_star_oracle_on_tree():
    # classes of singletons under the full-powerset <=* relation match the
    # embedding images on the tree example
    p = reversed_tree_height2()
    c = boolean_completion(p)
    assert star_leq(p, frozenset({"l0"}), frozenset({"r"}))
    assert not star_leq(p, frozenset({"r"}), frozenset({"l0"}))
    assert c.algebra.leq(c.embedding["l0"], c.embedding["r"])
    assert not c.algebra.leq(c.embedding["r"], c.embedding["l0"])
