"""Models, the satisfaction relation, frame properties."""

import json
import os
import random
import subprocess
import sys

import pytest

from helpers import (
    ROOT,
    enumerate_class_models,
    random_formula,
    random_model,
    reference_frame_valid,
    reference_mc,
    reference_restrict,
)
from kwl import semantics
from kwl.decide import valid
from kwl.fixtures import FIXTURES, announce, f1, f2, m1
from kwl.formula import BOT, And, Announce, K, Kw, Language, Not, Prop, parse, props_of
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
from kwl.translate import reduce


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
    for args, kwargs, text in (
            (([], ["i"], {}, {}), {}, "a model needs at least one world"),
            ((["s"], ["i"], {"i": [("s", "t")]}, {}), {},
             "edge ('s', 't') mentions an unknown world"),
            ((["s"], ["i"], {"j": []}, {}), {}, "relation for undeclared agent 'j'"),
            ((["s"], ["i"], {}, {"p": ["t"]}), {}, "valuation of 'p' mentions unknown worlds"),
            ((["s"], ["i"], {}, {}), {"point": "t"}, "point 't' is not a world"),
            ((["s", "s"], ["i"], {}, {}), {}, "duplicate world names"),
            ((["s"], ["i", "i"], {}, {}), {}, "duplicate agent names"),
            # two faults: the checks run in the order worlds, agents, relations,
            # edges, valuation, point
            ((["s", "s"], ["i", "i"], {}, {}), {}, "duplicate world names"),
            ((["s"], ["i", "i"], {"j": []}, {}), {}, "duplicate agent names"),
            ((["s"], ["i"], {"i": [("s", "t")], "j": []}, {}), {},
             "relation for undeclared agent 'j'"),
            ((["s"], ["i"], {"i": [("s", "t")]}, {"p": ["t"]}), {},
             "edge ('s', 't') mentions an unknown world"),
            ((["s"], ["i"], {}, {"p": ["t"]}), {"point": "t"},
             "valuation of 'p' mentions unknown worlds")):
        with pytest.raises(ModelError) as info:
            KripkeModel(*args, **kwargs)
        assert str(info.value) == text, args


def test_the_first_bad_edge_is_named_under_every_hash_seed():
    # the edges are read in the caller's order, not a set's, so fresh
    # interpreters with different hash seeds name the same edge
    code = ("from kwl.semantics import KripkeModel, ModelError\n"
            "try:\n"
            "    KripkeModel(['s'], ['i'], {'i': [('s', 't'), ('u', 's'), ('s', 'v')]}, {})\n"
            "except ModelError as e:\n"
            "    print(e)\n")
    named = set()
    for seed in range(8):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        named.add(run.stdout.strip())
    assert named == {"edge ('s', 't') mentions an unknown world"}


def test_mc_at_an_unknown_world():
    model = KripkeModel(["s"], ["i"], {}, {})
    with pytest.raises(ModelError) as info:
        mc(model, "x", parse("p"))
    assert str(info.value) == "unknown world 'x'"


def test_successors_of_an_unknown_agent_or_world():
    assert m1().successors("i", "s") == {"s", "t"}
    assert m1().successors("j", "s") == frozenset()
    assert m1().successors("i", "u") == frozenset()


def test_model_equality_and_repr():
    assert m1() == m1() and m1() != "m1"
    assert repr(m1()) == ("KripkeModel(worlds=['s', 't'], agents=['i'], "
                          "rel={'i': [('s', 's'), ('s', 't')]}, val={'q': ['t']})")


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


def _valid_under_each_valuation(frame: KripkeModel, f) -> bool:
    props, n = sorted(props_of(f)), len(frame.worlds)
    return all(model_valid(KripkeModel(frame.worlds, frame.agents, frame.rel,
                                       {p: [w for k, w in enumerate(frame.worlds)
                                            if v >> (i * n + k) & 1]
                                        for i, p in enumerate(props)}), f)
               for v in range(1 << len(props) * n))


def test_frame_valid_sweeps_blocks_of_valuations():
    """Frames of 11 and 12 valuation bits take 2 and 4 blocks.  Agent i's
    dead ends are the last worlds, so a valuation that makes p or q true at
    one of them, the only kind of counterexample to the first two formulas,
    sets a bit above the first block.  Agent j is missing from the frames."""
    six = [f"w{k}" for k in range(6)]
    eleven = [f"w{k}" for k in range(11)]
    frames = [KripkeModel(six, ["i"], {"i": [(six[k], six[(k + 1) % 4]) for k in range(4)]
                                         + [("w0", "w2")]}, {}),
              KripkeModel(eleven, ["i"], {"i": [(eleven[k], eleven[k + 1]) for k in range(10)]},
                          {})]
    for frame, text, expected in (
            (frames[0], "K[i]bot -> ~(q & (p | ~p))", False),
            (frames[1], "K[i]bot -> ~p", False),
            (frames[0], "Kw[i]p -> Kw[i]~p | q", True),
            (frames[0], "Kw[j](p & q) & K[j]bot", True),
            (frames[0], "Kw[i]p | Kw[j]q", True),
            (frames[1], "Kw[i]p -> Kw[i]Kw[i]p", True),
            (frames[0], "Kw[i](p -> q) -> Kw[i]q", False),
            (frames[1], "Kw[j]p -> K[i]p", False)):
        f = parse(text)
        assert frame_valid(frame, f) == expected, text
        assert reference_frame_valid(frame, f) == expected, text
        assert _valid_under_each_valuation(frame, f) == expected, text


def test_frame_valid_at_the_cap(monkeypatch):
    """10 worlds and 2 propositions: a valid formula takes all 2^10 blocks,
    an invalid one stops in the first block with a counterexample.  The
    first block varies p only."""
    passes = []
    original = semantics._ext

    def counting(sp, f, ws, dom, memo):
        if f is root:
            passes.append(ws)
        return original(sp, f, ws, dom, memo)

    monkeypatch.setattr(semantics, "_ext", counting)
    worlds = [f"w{k}" for k in range(10)]
    frame = KripkeModel(worlds, ["i"], {"i": [(s, t) for b in (0, 5) for s in worlds[b:b + 5]
                                              for t in worlds[b:b + 5]]}, {})
    root = parse("Kw[i]p -> Kw[i](Kw[i]p | q)")
    assert frame_valid(frame, root)
    assert len(passes) == 1 << 10
    for text, blocks in (("Kw[i]q -> Kw[i]p", 1), ("Kw[i]p -> Kw[i]q", 2)):
        passes.clear()
        root = parse(text)
        assert not frame_valid(frame, root)
        assert len(passes) == blocks


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
    shape = "malformed model document: "
    rel_shape = shape + "rel must map each agent to a list of [source, target] world pairs"
    for bad, text in (
            ({**good, "worlds": "st"}, shape + "worlds must be a list of strings"),
            ({**good, "rel": {"i": [["s", "t", "s"]]}}, rel_shape),
            ({**good, "worlds": [["s"], "t"]}, shape + "worlds must be a list of strings"),
            ({**good, "agents": "i"}, shape + "agents must be a list of strings"),
            ({**good, "rel": {"i": [["s", 1]]}}, rel_shape),
            ({**good, "rel": []}, rel_shape),
            ({**good, "val": {"p": "s"}}, shape + "val must map each proposition to a list of worlds"),
            ({**good, "point": ["s"]}, shape + "point must be a world"),
            (["s", "t"], shape + "not an object"),
            ({"agents": ["i"]}, shape + "'worlds'"),
            ({"worlds": ["s"]}, shape + "'agents'"),
            # two faults: every shape check of the document comes before the
            # checks of the model it describes
            ({**good, "val": {"p": "s"}, "rel": {"i": [["s", "u"]]}},
             shape + "val must map each proposition to a list of worlds"),
            ({**good, "val": {"p": ["u"]}, "rel": {"i": [["s", "u"]]}},
             "edge ('s', 'u') mentions an unknown world"),
            ({**good, "rel": {"j": []}, "point": 1}, shape + "point must be a world"),
            ({**good, "rel": {"j": []}, "point": "u"}, "relation for undeclared agent 'j'"),
            ({**good, "worlds": [], "rel": {"i": 7}}, rel_shape),
            ({**good, "worlds": ["s", "s"], "agents": ["j"]}, "duplicate world names")):
        with pytest.raises(ModelError) as info:
            KripkeModel.from_dict(bad)
        assert str(info.value) == text, bad
    assert KripkeModel.from_dict(good) == m1()


def test_edge_shape_faults_keep_their_texts():
    """The loader sets an edge's bits in the loop that finds its names, so a
    malformed edge must still be reported as a shape fault, before any fault
    of the model it describes, and must never load as a pair of worlds."""
    good = m1().to_dict()  # worlds s and t, agent i
    shape = "malformed model document: "
    rel_shape = shape + "rel must map each agent to a list of [source, target] world pairs"
    val_shape = shape + "val must map each proposition to a list of worlds"
    for bad, text in (
            ({**good, "rel": {"i": ["st"]}}, rel_shape),  # unpacks to two known worlds
            ({**good, "rel": {"i": [{"s": 0, "t": 1}]}}, rel_shape),  # so does a dict
            ({**good, "rel": {"i": [["s", "u"], ["s", 1]]}}, rel_shape),
            ({**good, "rel": {"i": [["s", "u"]], "j": 7}}, rel_shape),
            ({**good, "rel": {"i": [["s", ["t"]]]}}, rel_shape),
            ({**good, "rel": {"i": [[None, "t"]]}}, rel_shape),
            ({**good, "rel": {"i": [["s"]]}}, rel_shape),
            ({**good, "rel": {"j": [["s", "t", "s"]]}}, rel_shape),  # an undeclared agent's
            ({**good, "rel": {"i": [["s", 1]]}, "val": {"p": "s"}}, rel_shape),
            ({**good, "rel": {"i": [["s"]]}, "point": 1}, rel_shape),
            ({**good, "rel": {"i": [["s", "u"]]}, "point": None}, shape + "point must be a world"),
            ({**good, "worlds": ["s", "s"], "rel": {"i": [["s", "u"]]}}, "duplicate world names"),
            ({**good, "worlds": [], "val": {"p": "s"}}, val_shape),
            ({**good, "val": {"p": [1]}}, val_shape)):
        with pytest.raises(ModelError) as info:
            KripkeModel.from_dict(bad)
        assert str(info.value) == text, bad
    twice = KripkeModel.from_dict({**good, "val": {"q": ["t", "s", "t"]}})
    assert twice.val == {"q": frozenset({"s", "t"})}
    assert mc(twice, "s", parse("q")) and mc(twice, "t", parse("q"))


def test_loading_and_evaluating_build_no_pair_sets(tmp_path):
    """kwl mc and kwl frame read only the masks: rel and val are built on
    first read, and loading, mc, model_valid, frame_properties and
    successors read neither."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"worlds": ["s", "t", "u"], "agents": ["i", "j"],
                                "rel": {"i": [["s", "t"], ["t", "t"]], "j": []},
                                "val": {"p": ["t"]}}))
    model = load_model(path)
    assert mc(model, "s", parse("K[i]p & Kw[j]p"))
    assert model_valid(model, parse("Kw[i]p")) and not model_valid(model, parse("p"))
    assert frame_properties(model) == {FrameProperty.TRANSITIVE, FrameProperty.EUCLIDEAN,
                                       FrameProperty.PARTIAL_FUNCTIONAL}
    assert model.successors("i", "s") == {"t"} and model.successors("j", "s") == frozenset()
    assert "rel" not in vars(model) and "val" not in vars(model)
    assert model.rel == {"i": frozenset({("s", "t"), ("t", "t")}), "j": frozenset()}
    assert "rel" in vars(model)


def test_loaded_masks_match_the_edges():
    """The loader's relation and valuation masks against masks built edge by
    edge, on documents with duplicate edges, self-loops, an agent without a
    relation entry and empty valuations; and the model that _from_rows
    builds from those successor rows and masks against the loaded one."""
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        worlds = [f"w{k}" for k in range(n)]
        agents = ["i", "j", "k"][:rng.randint(1, 3)]
        rel = {}
        for agent in agents:
            if rng.random() < 0.2:
                continue
            edges = [[rng.choice(worlds), rng.choice(worlds)] for _ in range(rng.randint(0, 2 * n))]
            edges += [[w, w] for w in worlds if rng.random() < 0.3]
            edges += rng.sample(edges, min(len(edges), 2))
            rng.shuffle(edges)
            rel[agent] = edges
        val = {p: [w for w in worlds if rng.random() < 0.5] for p in ("p", "q")}
        val["q"] += val["q"][:1]
        val["r"] = []
        m = KripkeModel.from_dict({"worlds": worlds, "agents": agents, "rel": rel, "val": val})
        assert KripkeModel.from_dict(m.to_dict()) == m
        index = {w: k for k, w in enumerate(worlds)}
        rows = {}
        for agent in agents:
            rows[agent] = succ = [0] * n
            pred = [0] * n
            for s, t in rel.get(agent, []):
                succ[index[s]] |= 1 << index[t]
                pred[index[t]] |= 1 << index[s]
            assert (m._space.succ[agent], m._space.pred[agent]) == (succ, pred)
            assert m.rel[agent] == {tuple(e) for e in rel.get(agent, [])}
        masks = {p: 0 for p in val}
        for p, where in val.items():
            for w in where:
                masks[p] |= 1 << index[w]
        assert m._space.val == masks
        built = KripkeModel._from_rows(tuple(worlds), tuple(agents), None, rows, masks)
        assert built == m
        assert built._space.pred == m._space.pred
        assert built._index == m._index
        assert built.to_dict() == m.to_dict()


def test_decoders_on_a_sparse_100_world_model():
    """rel, val, to_dict, successors and restrict list a mask's worlds by its
    set bits (or, on a dense mask, in C); each against a reference built
    world by world from the edges, on rows whose few bits sit far apart."""
    rng = random.Random(9)
    worlds = [f"w{k}" for k in range(100)]
    edges = {a: sorted({(s, t) for s in range(100) for t in rng.sample(range(100), rng.randint(0, 3))})
             for a in ("i", "j")}
    where = {"p": sorted(rng.sample(range(100), 5)), "q": [99], "r": [], "dense": list(range(0, 100, 2))}
    m = KripkeModel(worlds, ["i", "j"], {a: [(worlds[s], worlds[t]) for s, t in pairs]
                                         for a, pairs in edges.items()},
                    {p: [worlds[k] for k in ks] for p, ks in where.items()}, point="w0")
    named = {a: [(worlds[s], worlds[t]) for s, t in pairs] for a, pairs in edges.items()}
    assert m.rel == {a: frozenset(pairs) for a, pairs in named.items()}
    assert m.val == {p: frozenset(worlds[k] for k in ks) for p, ks in where.items()}
    doc = m.to_dict()
    assert doc["rel"] == {a: [list(e) for e in pairs] for a, pairs in named.items()}
    assert doc["val"] == {p: [worlds[k] for k in ks] for p, ks in sorted(where.items())}
    for a, pairs in edges.items():
        for k, w in enumerate(worlds):
            assert m.successors(a, w) == {worlds[t] for s, t in pairs if s == k}
    for text in ("p | K[i]q", "~dense", "K[j]~r"):
        f = parse(text)
        keep = [k for k, w in enumerate(worlds) if mc(m, w, f)]
        sub = restrict(m, f)
        assert sub.worlds == tuple(worlds[k] for k in keep)
        assert sub.rel == {a: {(worlds[s], worlds[t]) for s, t in pairs if s in keep and t in keep}
                           for a, pairs in edges.items()}
        assert sub.val == {p: {worlds[k] for k in ks if k in keep} for p, ks in where.items()}


def test_evaluator_agrees_with_reference():
    """mc, model_valid, restrict and frame_valid against the world-by-world
    oracle, on models with worlds that see nothing and formulas with
    announcements inside announced formulas and bodies.  The 40-70-world
    models make world sets of more than one 30-bit digit of a CPython int."""
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
    agents = ("i", "j", "k")
    for _ in range(8):
        worlds = [f"w{k}" for k in range(rng.randint(40, 70))]
        m = KripkeModel(worlds, agents,
                        {a: [(s, t) for s in worlds for t in rng.sample(worlds, rng.randint(0, 3))]
                         for a in agents},
                        {p: rng.sample(worlds, len(worlds) // 2) for p in ("p", "q")})
        f = random_formula(rng, 2, agents=agents, lang=Language.PLKwAK)
        g = random_formula(rng, 2, agents=agents, lang=Language.PLKwA)
        a, b = rng.choice(agents), rng.choice(agents)
        for h in (Kw(a, Announce(g, f)), K(b, Announce(f, Kw(a, g)))):
            sub = reference_restrict(m, h)
            truth = [sub is not None and w in sub.worlds for w in m.worlds]
            assert [mc(m, w, h) for w in m.worlds] == truth
            assert model_valid(m, h) == all(truth)
            assert restrict(m, h) == sub


def test_model_valid_evaluates_each_announced_formula_once_per_domain(monkeypatch):
    """The announcement [a]b evaluates a on the whole domain to make the
    domain of b.  Over one domain, the calls that evaluate a for any
    announcement [a]... ask disjoint sets of worlds."""
    calls, parents = [], [None]
    original = semantics._ext

    def recording(sp, f, ws, dom, memo):
        parent = parents[-1]
        if type(parent) is Announce and f is parent.announced:
            calls.append((f, dom, ws))
        parents.append(f)
        try:
            return original(sp, f, ws, dom, memo)
        finally:
            parents.pop()

    monkeypatch.setattr(semantics, "_ext", recording)
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
    asked = {}
    for announced, dom, ws in calls:
        seen = asked.get((announced, dom), 0)
        assert not seen & ws
        asked[(announced, dom)] = seen | ws
    # a over all worlds, and b over the worlds where a holds
    assert {(str(a), dom) for a, dom in asked} == {
        ("a", (1 << 200) - 1), ("b", sum(1 << k for k, w in enumerate(worlds) if w in m.val["a"]))}


def test_ext_calls_on_a_reduced_announcement_dag(monkeypatch):
    """The mc re-check of a countermodel to a reduced DAG with ten nested Kw
    announcements (91 distinct nodes, 37 million as a tree) evaluates each
    K/Kw node once per domain and world, not once per path."""
    count = [0]
    original = semantics._ext

    def counting(*args):
        count[0] += 1
        return original(*args)

    f = parse("".join(f"[Kw[i]p{k}]" for k in reversed(range(10))) + "Kw[i]q")
    g = reduce(f)
    monkeypatch.setattr(semantics, "_ext", counting)
    assert not valid(g, FrameClass.S5).valid
    assert 0 < count[0] <= 25_000
