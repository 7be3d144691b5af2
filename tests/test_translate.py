"""Kw/K translations and announcement reduction."""

import random

import pytest

from helpers import random_formula, random_model
from kwl.formula import Announce, Language, classify_language, complexity, parse, render
from kwl.semantics import FrameClass, KripkeModel, mc
from kwl.translate import el_to_kw, kw_to_el, reduce


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


def test_reduce_rejects_k():
    with pytest.raises(ValueError):
        reduce(parse("[p]K[i]q"))
    with pytest.raises(ValueError):
        reduce(parse("K[i]p"))


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


def test_nested_announcement_pin():
    assert render(reduce(parse("[p][q]r"))) == "p & (p -> q) -> r"
    f = parse("[p & [p]q]r")
    assert reduce(f) == reduce(parse("[p][q]r"))
