"""Kw/K translations and announcement reduction."""

import random

import pytest

from helpers import random_formula, random_model
from kwl.formula import (
    And,
    Announce,
    Iff,
    Kw,
    Language,
    Not,
    Prop,
    classify_language,
    complexity,
    parse,
    render,
    subformulas,
)
from kwl.decide import BudgetExceeded, sat
from kwl.proof import match_axiom
from kwl.semantics import FrameClass, KripkeModel, mc
from kwl.translate import el_to_kw, kw_to_el, reduce, step


def has_announcement(f):
    if isinstance(f, Announce):
        return True
    return any(has_announcement(getattr(f, name))
               for name in ("sub", "left", "right", "announced", "body")
               if hasattr(f, name))


def test_kw_to_el_pins():
    assert kw_to_el(parse("Kw[i]p")) == parse("K[i]p | K[i]~p")
    assert kw_to_el(parse("~Kw[i](p & q)")) == parse("~(K[i](p & q) | K[i]~(p & q))")
    assert kw_to_el(parse("Kw[i]Kw[j]p")) == parse(
        "K[i](K[j]p | K[j]~p) | K[i]~(K[j]p | K[j]~p)")
    assert kw_to_el(parse("p -> q")) == parse("p -> q")
    # the error names the first offending subformula in left-to-right preorder
    with pytest.raises(ValueError, match=r"got: K\[i\]p$"):
        kw_to_el(parse("K[i]p"))
    with pytest.raises(ValueError, match=r"got: \[p\]Kw\[i\]q$"):
        kw_to_el(parse("[p]Kw[i]q"))
    with pytest.raises(ValueError, match=r"got: K\[i\]q$"):
        kw_to_el(parse("p & K[i]q | [r]s"))


def test_kw_to_el_expands_each_shared_node_once(nodes_requested):
    # as a tree, the reduction of six Kw announcements has 59,374 nodes and its
    # expansion asks for about 97,000; as DAGs both are a few per announcement
    g = reduce(parse("[Kw[i]p5][Kw[i]p4][Kw[i]p3][Kw[i]p2][Kw[i]p1][Kw[i]p0]Kw[i]q"))
    nodes_requested.clear()
    kw_to_el(g)
    assert len(nodes_requested) < 200


def test_el_to_kw_translates_each_shared_node_once(nodes_requested):
    # as a tree, the expansion of Kw[i]^18 p has about 2^19 K nodes; as a DAG, 73 nodes
    g = kw_to_el(parse("Kw[i]" * 18 + "p"))
    nodes_requested.clear()
    el_to_kw(g)
    assert len(nodes_requested) <= 108


def test_reduce_work_grows_linearly_with_nested_announcements(nodes_requested):
    # an innermost-first walk asks for 187, 253, 319 and 385 nodes; the
    # outermost-first one may ask for a quarter more
    for n, innermost in ((6, 187), (8, 253), (10, 319), (12, 385)):
        f = parse("".join(f"[Kw[i]p{k}]" for k in reversed(range(n))) + "Kw[i]q")
        nodes_requested.clear()
        reduce(f)
        assert len(nodes_requested) <= 1.25 * innermost, n


def test_el_to_kw_pins():
    assert el_to_kw(parse("K[i]p")) == parse("p & Kw[i]p")
    assert el_to_kw(parse("~K[i]K[j]q")) == parse(
        "~((q & Kw[j]q) & Kw[i](q & Kw[j]q))")
    with pytest.raises(ValueError, match=r"got: Kw\[i\]p$"):
        el_to_kw(parse("Kw[i]p"))
    with pytest.raises(ValueError, match=r"got: Kw\[j\]q$"):
        el_to_kw(parse("K[i](p | Kw[j]q) & [r]s"))


def test_kw_to_el_preserves_truth():
    rng = random.Random(31)
    for _ in range(300):
        m = random_model(rng, FrameClass.K)
        f = random_formula(rng, 4, lang=Language.PLKw)
        w = rng.choice(m.worlds)
        assert mc(m, w, f) == mc(m, w, kw_to_el(f))


def test_el_to_kw_preserves_truth_on_reflexive():
    rng = random.Random(37)
    for _ in range(300):
        m = random_model(rng, FrameClass.T)
        f = random_formula(rng, 4, lang=Language.EL)
        w = rng.choice(m.worlds)
        assert mc(m, w, f) == mc(m, w, el_to_kw(f))


def test_el_to_kw_fails_without_reflexivity():
    # at s, K[i]p holds (the only successor satisfies p) but its translation
    # p & Kw[i]p needs p at s itself
    m = KripkeModel(["s", "t"], ["i"], {"i": [("s", "t")]}, {"p": ["t"]})
    f = parse("K[i]p")
    assert mc(m, "s", f)
    assert not mc(m, "s", el_to_kw(f))


def test_reduce_pins():
    cases = [
        ("[p]q", "p -> q"),
        ("[p]top", "top"),
        ("[p]bot", "~p"),
        ("[p]~q", "p -> ~(p -> q)"),
        ("[p](q & r)", "(p -> q) & (p -> r)"),
        ("[p](q | r)", "(p -> q) | (p -> r)"),
        ("[p](q -> r)", "(p -> q) -> p -> r"),
        ("[p]Kw[i]q", "p -> Kw[i](p -> q) | Kw[i](p -> ~(p -> q))"),
        ("Kw[i]p & q", "Kw[i]p & q"),
    ]
    for source, expected in cases:
        assert render(reduce(parse(source))) == expected


def test_reduce_rewrites_k():
    # reduce once rejected K; it now rewrites [a]K[i]b to a -> K[i][a]b
    assert render(reduce(parse("[p]K[i]q"))) == "p -> K[i](p -> q)"
    assert render(reduce(parse("K[i]p"))) == "K[i]p"


def test_reduce_output_is_announcement_free():
    rng = random.Random(41)
    for _ in range(300):
        f = random_formula(rng, 4, lang=Language.PLKwA)
        g = reduce(f)
        assert not has_announcement(g)
        assert classify_language(g) in (Language.EL, Language.PLKw)
        if has_announcement(f):
            assert complexity(g) < complexity(f)
        assert reduce(g) == g


def test_reduce_preserves_truth_everywhere():
    rng = random.Random(43)
    for _ in range(150):
        f = random_formula(rng, 3, lang=Language.PLKwA)
        g = reduce(f)
        for _ in range(5):
            m = random_model(rng, FrameClass.K)
            for w in m.worlds:
                assert mc(m, w, f) == mc(m, w, g), (render(f), w)


def test_step_is_the_reduction_axioms():
    # the rewrite of each body shape that the proof system's axioms cover is
    # an instance of that axiom, and of no other
    axioms = {Prop: "!ATOM", Not: "!NEG", And: "!COM", Announce: "!!", Kw: "!Kw"}
    rng = random.Random(47)
    for _ in range(200):
        a, c, d = (random_formula(rng, 3, lang=Language.PLKwA) for _ in range(3))
        for body in (Prop(rng.choice("pq")), Not(c), And(c, d), Announce(c, d), Kw("i", c)):
            redex = Announce(a, body)
            matched = {name for name in axioms.values()
                       if match_axiom(name, Iff(redex, step(redex))) is not None}
            assert matched == {axioms[type(body)]}, render(redex)


def test_nested_announcement_pin():
    assert render(reduce(parse("[p][q]r"))) == "p & (p -> q) -> r"
    f = parse("[p & [p]q]r")
    assert reduce(f) == reduce(parse("[p][q]r"))


def test_sat_weighs_no_formula():
    # step weighs nothing, so sat's budget bounds its rewriting: at a budget of
    # 1 a chain of 20,000 announcements stops after two nnf misses, and not
    # one of its nodes has been weighed (a weight here would be 5**20000)
    f = parse("[p_unweighed]" * 20000 + "q_unweighed")
    with pytest.raises(BudgetExceeded):
        sat(f, FrameClass.K, budget=1)
    assert not any(hasattr(g, "_weight") for g in subformulas(f))


def test_reduce_checks_that_each_rewrite_shrinks(monkeypatch):
    # a rewrite that gives its redex back: reduce's check stops it, and in sat
    # every rewrite follows a tick, so the budget stops it
    monkeypatch.setattr("kwl.translate.step", lambda redex: redex)
    monkeypatch.setattr("kwl.decide.step", lambda redex: redex)
    f = parse("[p]q")
    with pytest.raises(AssertionError, match="rewrite did not shrink"):
        reduce(f)
    with pytest.raises(BudgetExceeded):
        sat(f, FrameClass.K, budget=100)
