"""Models, the satisfaction relation, frame properties."""

import json
import random

import pytest

from helpers import (
    enumerate_class_models,
    random_formula,
    random_model,
    reference_frame_valid,
    reference_mc,
    reference_restrict,
)
from kwl import semantics
from kwl.fixtures import FIXTURES, announce, f1, f2, m1
from kwl.formula import BOT, And, Announce, Kw, Language, Not, Prop, parse
from kwl.semantics import (
    FrameClass,
    FrameProperty,
    KripkeModel,
    ModelError,
    frame_properties,
    frame_valid,
    load_model,
    mc,
    model_valid,
    restrict,
    satisfies_class,
)


def test_m1_pins():
    m = m1()
    assert mc(m, "s", parse("Kw[i](p -> q)"))
    assert mc(m, "s", parse("Kw[i]p"))
    assert not mc(m, "s", parse("Kw[i]q"))
    assert not mc(m, "s", parse("Kw[i](p -> q) -> (Kw[i]p -> Kw[i]q)"))


def test_kw_is_agreement():
    m = KripkeModel(["s", "t", "u"], ["i"], {"i": [("s", "t"), ("s", "u")]},
                    {"p": ["t"], "q": ["t", "u"]})
    assert not mc(m, "s", parse("Kw[i]p"))   # successors disagree on p
    assert mc(m, "s", parse("Kw[i]q"))       # both satisfy q
    assert mc(m, "s", parse("Kw[i](p -> q)"))
    assert mc(m, "t", parse("Kw[i]p"))       # no successors: vacuous agreement
    assert mc(m, "t", parse("Kw[i]bot"))


def test_k_and_booleans():
    m = m1()
    assert mc(m, "s", parse("K[i](p -> q)"))
    assert not mc(m, "s", parse("K[i]q"))
    assert mc(m, "t", parse("q & ~p"))
    assert mc(m, "s", parse("top"))
    assert not mc(m, "s", parse("bot"))
    assert mc(m, "s", parse("p <-> bot"))
    assert mc(m, "s", parse("~p | q | ~q"))


def test_announcement_semantics():
    m = announce()
    assert not mc(m, "s", parse("Kw[i]q"))
    assert not mc(m, "s", parse("[q]~Kw[i]q"))
    assert mc(m, "s", parse("p -> [q]p"))
    # announcing something false is vacuously true
    assert mc(m, "s", parse("[bot]Kw[i]q"))
    assert mc(m, "s", parse("[p & ~p]bot"))


def test_restrict():
    m = announce()
    sub = restrict(m, parse("q"))
    assert sub is not None
    assert set(sub.worlds) == {w for w in m.worlds if mc(m, w, parse("q"))}
    assert restrict(m, parse("bot")) is None
    # the point survives only when it satisfies the announcement
    pointed = KripkeModel(m.worlds, m.agents, {"i": [("s", "t1")]},
                          {"q": ["s", "t1"]}, point="s")
    assert restrict(pointed, parse("q")).point == "s"
    assert restrict(pointed, parse("~q")) is None or restrict(pointed, parse("~q")).point is None


def test_model_validation_errors():
    with pytest.raises(ModelError):
        KripkeModel([], ["i"], {}, {})
    with pytest.raises(ModelError):
        KripkeModel(["s"], ["i"], {"i": [("s", "t")]}, {})
    with pytest.raises(ModelError):
        KripkeModel(["s"], ["i"], {"j": []}, {})
    with pytest.raises(ModelError):
        KripkeModel(["s"], ["i"], {}, {"p": ["t"]})
    with pytest.raises(ModelError):
        KripkeModel(["s"], ["i"], {}, {}, point="t")
    with pytest.raises(ModelError):
        KripkeModel(["s", "s"], ["i"], {}, {})


def test_json_round_trip():
    for name, build in FIXTURES.items():
        m = build()
        assert KripkeModel.from_json(m.to_json()) == m
    pointed = KripkeModel(["s"], ["i"], {"i": [("s", "s")]}, {"p": ["s"]}, point="s")
    again = KripkeModel.from_json(pointed.to_json())
    assert again == pointed and again.point == "s"
    unpointed = m1()
    assert "point" not in json.loads(unpointed.to_json())


def test_load_model(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(m1().to_json())
    assert load_model(path) == m1()


def test_frame_properties_pins():
    assert frame_properties(f1()) == {FrameProperty.PARTIAL_FUNCTIONAL}
    assert frame_properties(f2()) == set(FrameProperty)
    empty = KripkeModel(["s", "t"], ["i"], {"i": []}, {})
    assert frame_properties(empty) == {
        FrameProperty.TRANSITIVE,
        FrameProperty.SYMMETRIC,
        FrameProperty.EUCLIDEAN,
        FrameProperty.PARTIAL_FUNCTIONAL,
    }
    # s sees s and t, t sees nothing: transitive, not serial, not euclidean
    assert frame_properties(m1()) == {FrameProperty.TRANSITIVE}


def test_satisfies_class_and_parse():
    assert satisfies_class(f2(), FrameClass.S5)
    assert satisfies_class(f1(), FrameClass.PF)
    assert not satisfies_class(f1(), FrameClass.T)
    assert satisfies_class(m1(), FrameClass.K4)
    assert not satisfies_class(m1(), FrameClass.D)
    assert satisfies_class(m1(), FrameClass.K)
    assert FrameClass.parse("s5") == FrameClass.S5
    assert FrameClass.parse("K45") == FrameClass.K45
    assert FrameClass.parse("pf") == FrameClass.PF
    with pytest.raises(ValueError):
        FrameClass.parse("nope")


def test_frame_class_requirements():
    assert FrameClass.K.requirements == frozenset()
    assert FrameClass.D.requirements == {FrameProperty.SERIAL}
    assert FrameClass.T.requirements == {FrameProperty.REFLEXIVE}
    assert FrameClass.B.requirements == {FrameProperty.SYMMETRIC}
    assert FrameClass.K4.requirements == {FrameProperty.TRANSITIVE}
    assert FrameClass.K5.requirements == {FrameProperty.EUCLIDEAN}
    assert FrameClass.K45.requirements == {FrameProperty.TRANSITIVE,
                                           FrameProperty.EUCLIDEAN}
    assert FrameClass.S4.requirements == {FrameProperty.REFLEXIVE,
                                          FrameProperty.TRANSITIVE}
    assert FrameClass.S5.requirements == {FrameProperty.REFLEXIVE,
                                          FrameProperty.EUCLIDEAN}
    assert FrameClass.PF.requirements == {FrameProperty.PARTIAL_FUNCTIONAL}


def test_frame_valid():
    assert frame_valid(f2(), parse("p | ~p"))
    assert not frame_valid(f2(), parse("p"))
    assert frame_valid(f2(), parse("Kw[i]p"))
    assert frame_valid(f1(), parse("Kw[i]p"))
    assert not frame_valid(m1(), parse("Kw[i]p"))
    big = KripkeModel([f"w{k}" for k in range(30)], ["i"], {"i": []}, {})
    with pytest.raises(ValueError):
        frame_valid(big, parse("p | ~p"))


def test_model_valid():
    m = m1()
    assert model_valid(m, parse("p -> ~q | q"))
    assert not model_valid(m, parse("q"))


def test_boolean_connectives_agree_with_python(fixture_claims):
    rng = random.Random(11)
    for _ in range(200):
        m = random_model(rng, FrameClass.K)
        w = rng.choice(m.worlds)
        f = random_formula(rng, 3, lang=Language.PLKwAK)
        g = random_formula(rng, 3, lang=Language.PLKwAK)
        assert mc(m, w, Not(f)) == (not mc(m, w, f))
        assert mc(m, w, And(f, g)) == (mc(m, w, f) and mc(m, w, g))
        assert mc(m, w, parse("top"))
        assert mc(m, w, Kw("i", f)) == (
            len({mc(m, v, f) for v in m.successors("i", w)}) <= 1)


def test_random_class_models_satisfy_class():
    rng = random.Random(23)
    for fc in FrameClass:
        for _ in range(40):
            m = random_model(rng, fc)
            assert satisfies_class(m, fc)


def test_enumerated_class_model_counts():
    # one world: 1 reflexive relation x 2 valuations; two worlds: the two
    # equivalence relations (T: four reflexive relations) x 4 valuations
    assert len(enumerate_class_models(2, FrameClass.S5)) == 10
    assert len(enumerate_class_models(2, FrameClass.T)) == 18
    for m in enumerate_class_models(2, FrameClass.K4):
        assert satisfies_class(m, FrameClass.K4)


def test_model_document_schema(tmp_path):
    good = m1().to_dict()
    for bad in ({**good, "worlds": "st"},
                {**good, "rel": {"i": [["s", "t", "s"]]}},
                {**good, "worlds": [["s"], "t"]},
                {**good, "agents": "i"},
                {**good, "rel": {"i": [["s", 1]]}},
                {**good, "rel": []},
                {**good, "val": {"p": "s"}},
                {**good, "point": ["s"]},
                ["s", "t"]):
        with pytest.raises(ModelError):
            KripkeModel.from_dict(bad)
    assert KripkeModel.from_dict(good) == m1()


def test_evaluator_agrees_with_reference():
    """mc, model_valid, restrict and frame_valid against the world-by-world
    oracle, on models with worlds that see nothing and formulas with
    announcements inside announced formulas and bodies."""
    rng = random.Random(41)
    agents = ("i", "j")
    for _ in range(300):
        m = random_model(rng, rng.choice([FrameClass.K, FrameClass.PF]), max_worlds=6,
                         agents=agents)
        m = KripkeModel(m.worlds, m.agents, m.rel, m.val, point=rng.choice(m.worlds))
        f = random_formula(rng, 4, agents=agents, lang=Language.PLKwAK)
        g = random_formula(rng, 3, agents=agents, lang=Language.PLKwA)
        for h in (f, Announce(BOT, f), Announce(Announce(g, f), Kw("j", Announce(f, g)))):
            truth = [reference_mc(m, w, h) for w in m.worlds]
            assert [mc(m, w, h) for w in m.worlds] == truth
            assert model_valid(m, h) == all(truth)
            assert restrict(m, h) == reference_restrict(m, h)
        frame = random_model(rng, FrameClass.K, max_worlds=3, agents=agents)
        h = random_formula(rng, 4, agents=agents, lang=Language.PLKwA)
        assert frame_valid(frame, h) == reference_frame_valid(frame, h)


def test_model_valid_restricts_once_per_announcement(monkeypatch):
    calls = []
    original = semantics.restrict

    def counting(model, f, **kwargs):
        calls.append((model.worlds, f))
        return original(model, f, **kwargs)

    monkeypatch.setattr(semantics, "restrict", counting)
    rng = random.Random(7)
    worlds = [f"w{k}" for k in range(200)]
    rel = {"i": [(s, t) for b in range(0, 200, 4)
                 for s in worlds[b:b + 4] for t in worlds[b:b + 4]],
           "j": [(s, t) for s in worlds for t in rng.sample(worlds, 2)]}
    m = KripkeModel(worlds, ["i", "j"], rel,
                    {p: rng.sample(worlds, 100) for p in ("a", "b", "c")})
    # the reduction axiom for Kw
    g = "([b]Kw[j](c | ~a))"
    f = parse(f"[a]Kw[i]{g} <-> (a -> Kw[i][a]{g} | Kw[i][a]~{g})")
    assert model_valid(m, f)
    assert calls and len(calls) == len(set(calls))
