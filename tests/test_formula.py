"""Formula AST, parser, printer, enumerator."""

import copy
import dataclasses
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_formulas, node_count, random_formula
from kwl import formula
from kwl.decide import _Dia, valid
from kwl.formula import (
    BOT,
    TOP,
    And,
    Announce,
    Formula,
    Iff,
    Implies,
    K,
    Kw,
    Language,
    Not,
    Or,
    ParseError,
    Prop,
    agents_of,
    classify_language,
    complexity,
    conj,
    disj,
    enumerate_formulas,
    in_language,
    parse,
    props_of,
    render,
    subformulas,
    substitute,
)
from kwl.semantics import FrameClass
from kwl.translate import reduce

P, Q, R = Prop("p"), Prop("q"), Prop("r")

# as a tree, its reduction has 59,374 nodes; as a DAG, 55
_SIX_ANNOUNCEMENTS = "[Kw[i]p5][Kw[i]p4][Kw[i]p3][Kw[i]p2][Kw[i]p1][Kw[i]p0]Kw[i]q"


def test_parse_precedence():
    assert parse("p & q | r") == Or(And(P, Q), R)
    assert parse("p | q & r") == Or(P, And(Q, R))
    assert parse("p & q -> r") == Implies(And(P, Q), R)
    assert parse("p -> q <-> r") == Iff(Implies(P, Q), R)
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse("p <-> q <-> r") == Iff(P, Iff(Q, R))
    assert parse("p & q & r") == And(And(P, Q), R)
    assert parse("p | q | r") == Or(Or(P, Q), R)
    assert parse("~p & q") == And(Not(P), Q)
    assert parse("~Kw[i]p & q") == And(Not(Kw("i", P)), Q)
    assert parse("Kw[i]p -> q") == Implies(Kw("i", P), Q)
    assert parse("K[a]~p") == K("a", Not(P))
    assert parse("[p -> q]r") == Announce(Implies(P, Q), R)
    assert parse("[p][q]r") == Announce(P, Announce(Q, R))
    assert parse("top & bot") == And(TOP, BOT)
    assert parse("(p)") == P


def test_parse_errors():
    for bad in ["", "p &", "(p", "p q", "Kw p", "Kw[i", "[p]", "P", "Kw[I]p",
                "p -> ", "~", "p <- q", "p & & q", "kw[i]p & Kw", "1p"]:
        with pytest.raises(ParseError):
            parse(bad)
    err = None
    try:
        parse("p & (q |)")
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset == 8


def test_parse_vocab_restriction():
    assert parse("p & q", props={"p", "q"}) == And(P, Q)
    with pytest.raises(ParseError):
        parse("p & r", props={"p", "q"})
    with pytest.raises(ParseError):
        parse("Kw[j]p", agents={"i"})
    assert parse("Kw[i]p", props={"p"}, agents={"i"}) == Kw("i", P)


def test_render_pins():
    assert render(parse("p & q | r")) == "p & q | r"
    assert render(And(Or(P, Q), R)) == "(p | q) & r"
    assert render(Or(P, And(Q, R))) == "p | q & r"
    assert render(Implies(P, Implies(Q, R))) == "p -> q -> r"
    assert render(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
    assert render(Not(Kw("i", And(P, Q)))) == "~Kw[i](p & q)"
    assert render(Announce(Implies(P, Q), Kw("i", P))) == "[p -> q]Kw[i]p"
    assert render(TOP) == "top"
    assert render(BOT) == "bot"


def test_render_pins_each_connective_inside_each_other():
    # (outer, inner, inner on the left, inner on the right): parentheses only
    # where the precedence or the associativity needs them
    pins = [
        (And, And, "p & q & r", "p & (q & r)"),
        (And, Or, "(p | q) & r", "p & (q | r)"),
        (And, Implies, "(p -> q) & r", "p & (q -> r)"),
        (And, Iff, "(p <-> q) & r", "p & (q <-> r)"),
        (Or, And, "p & q | r", "p | q & r"),
        (Or, Or, "p | q | r", "p | (q | r)"),
        (Or, Implies, "(p -> q) | r", "p | (q -> r)"),
        (Or, Iff, "(p <-> q) | r", "p | (q <-> r)"),
        (Implies, And, "p & q -> r", "p -> q & r"),
        (Implies, Or, "p | q -> r", "p -> q | r"),
        (Implies, Implies, "(p -> q) -> r", "p -> q -> r"),
        (Implies, Iff, "(p <-> q) -> r", "p -> (q <-> r)"),
        (Iff, And, "p & q <-> r", "p <-> q & r"),
        (Iff, Or, "p | q <-> r", "p <-> q | r"),
        (Iff, Implies, "p -> q <-> r", "p <-> q -> r"),
        (Iff, Iff, "(p <-> q) <-> r", "p <-> q <-> r"),
    ]
    for outer, inner, on_left, on_right in pins:
        assert render(outer(inner(P, Q), R)) == on_left
        assert render(outer(P, inner(Q, R))) == on_right
        assert parse(on_left) == outer(inner(P, Q), R)
        assert parse(on_right) == outer(P, inner(Q, R))


def test_render_parse_round_trip_enumerated():
    for f in enumerate_formulas(["p", "q"], ["i", "j"], Language.PLKwAK, 5):
        assert parse(render(f)) == f


def test_render_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(400):
        f = random_formula(rng, 5, props=("p", "q", "r"), agents=("i", "j"),
                           lang=Language.PLKwAK)
        assert parse(render(f)) == f


# st.recursive rather than a self-referential st.deferred: drawing the
# deferred trees took most of a minute for 200 examples, while these are drawn
# in about a second and are larger at every quantile of the node count
_agents = st.sampled_from(["i", "j"])
_formula_strategy = st.recursive(
    st.sampled_from([P, Q, R, TOP, BOT]),
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Kw, _agents, sub),
        st.builds(K, _agents, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Iff, sub, sub),
        st.builds(Announce, sub, sub),
    ),
    max_leaves=1000,
)


@settings(max_examples=200, deadline=None)
@given(_formula_strategy)
def test_render_parse_round_trip_hypothesis(f):
    assert parse(render(f)) == f


def test_conj_disj():
    assert conj([]) == TOP
    assert disj([]) == BOT
    assert conj([P]) == P
    assert conj([P, Q, R]) == And(And(P, Q), R)
    assert disj([P, Q, R]) == Or(Or(P, Q), R)


def test_complexity_pins():
    assert complexity(P) == 1
    assert complexity(TOP) == 1
    assert complexity(Not(P)) == 2
    assert complexity(And(P, Q)) == 2
    assert complexity(Implies(And(P, Q), R)) == 3
    assert complexity(Kw("i", P)) == 3
    assert complexity(K("i", P)) == 3
    assert complexity(parse("[p]q")) == 5
    assert complexity(parse("[p]Kw[i]q")) == 15
    assert complexity(parse("[p & q][r]p")) == 30


def test_substitute():
    f = parse("Kw[i](p & q) -> [p]q")
    assert substitute(f, "p", R) == parse("Kw[i](r & q) -> [r]q")
    assert substitute(f, "missing", R) == f
    assert substitute(P, "p", parse("q | r")) == parse("q | r")


def test_substitute_shares_its_work(nodes_requested):
    g = reduce(parse(_SIX_ANNOUNCEMENTS))
    nodes_requested.clear()
    h = substitute(g, "q", R)
    # at most one constructor call per distinct node of g, not one per path to it
    assert len(nodes_requested) <= 55
    assert h == reduce(parse(_SIX_ANNOUNCEMENTS.replace("Kw[i]q", "Kw[i]r")))


def test_props_agents():
    f = parse("Kw[i](p & q) -> K[j]r")
    assert props_of(f) == {"p", "q", "r"}
    assert agents_of(f) == {"i", "j"}
    assert props_of(TOP) == set()


def test_children_and_map_per_node_type():
    nodes = [TOP, BOT, P, Not(P), And(P, Q), Or(P, Q), Implies(P, Q), Iff(P, Q),
             Kw("i", P), K("i", P), _Dia("i", P), Announce(P, Q)]
    for f in nodes:
        subs = {fld.name: getattr(f, fld.name) for fld in dataclasses.fields(f)
                if isinstance(getattr(f, fld.name), Formula)}
        assert f.children() == tuple(subs.values())
        assert f.map(lambda g: g) == f
        assert f.map(Not) == dataclasses.replace(f, **{k: Not(g) for k, g in subs.items()})


def _tree_preorder(f):
    yield f
    for g in f.children():
        yield from _tree_preorder(g)


def test_subformulas_preorder():
    assert [render(g) for g in subformulas(parse("[p]Kw[i]q & ~r"))] == \
        ["[p]Kw[i]q & ~r", "[p]Kw[i]q", "p", "Kw[i]q", "q", "~r", "r"]
    # a shared node comes once, where the preorder first reaches it
    assert [render(g) for g in subformulas(parse("Kw[i]p & (q | Kw[i]p)"))] == \
        ["Kw[i]p & (q | Kw[i]p)", "Kw[i]p", "p", "q | Kw[i]p", "q"]
    for f in enumerate_formulas(["p", "q"], ["i"], Language.PLKwAK, 5):
        distinct = list(dict.fromkeys(_tree_preorder(f)))
        assert len(list(subformulas(f))) == len(distinct)
        assert list(subformulas(f)) == distinct


def test_subformulas_walks_a_dag_once():
    g = reduce(parse(_SIX_ANNOUNCEMENTS))
    nodes = list(subformulas(g))
    assert len(nodes) == len(set(nodes)) == 55
    assert props_of(g) == {"p0", "p1", "p2", "p3", "p4", "p5", "q"}
    assert classify_language(g) == Language.PLKw


def test_deep_formulas_are_walked_without_recursion():
    f = Kw("i", P)
    for _ in range(5000):
        f = Not(f)
    assert props_of(f) == {"p"}
    assert agents_of(f) == {"i"}
    assert in_language(f, Language.PLKw)
    assert classify_language(f) == Language.PLKw


def test_equal_formulas_are_one_node():
    assert Prop("p") is P
    assert Prop(name="p") is P
    assert Kw(agent="i", sub=P) is Kw("i", sub=P) is Kw("i", P)
    assert dataclasses.replace(Kw("i", P), sub=Q) is Kw("i", Q)
    assert dataclasses.replace(Announce(P, Q), body=R) is Announce(P, R)
    assert parse("Kw[i](p & q)") is Kw("i", And(P, Q))
    # the class is part of a node's identity
    assert _Dia("i", P) is not K("i", P)
    assert And(P, Q) is not Or(P, Q)
    with pytest.raises(TypeError):
        Prop()
    with pytest.raises(TypeError):
        Kw("i", P, Q)
    with pytest.raises(TypeError):
        Kw("i", body=P)
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.name = "q"


def test_copies_and_pickles_are_the_interned_node():
    for f in (TOP, P, parse("Kw[i](p -> [q]~r) <-> K[j]bot"), _Dia("i", Not(P))):
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
    # unpickled after the node died: built afresh, then shared as usual
    text = pickle.dumps(Kw("i", Prop("unpickled")))
    assert pickle.loads(text) is Kw("i", Prop("unpickled"))


def test_deep_formulas_compare_and_hash_in_constant_depth():
    def chain():
        f = Kw("i", P)
        for _ in range(5000):
            f = Not(f)
        return f

    a, b = chain(), chain()
    assert a is b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_the_intern_table_pins_nothing():
    gc.collect()
    before = len(formula._NODES)
    f = Prop("unpinned")  # a letter no other test keeps alive
    for _ in range(10):
        f = Kw("i", f)
    assert not valid(f, FrameClass.K).valid
    assert len(formula._NODES) > before
    del f
    gc.collect()
    assert len(formula._NODES) == before


def test_parser_and_complexity_depth():
    # one frame per precedence level for each parenthesis, and one per node
    assert parse("(" * 180 + "p" + ")" * 180) == P
    deep = parse("~" * 700 + "p")
    assert complexity(deep) == 701
    assert complexity(Kw("i", deep)) == 703


def test_language_classification():
    assert classify_language(parse("p & ~q")) == Language.EL
    assert classify_language(parse("K[i]p")) == Language.EL
    assert classify_language(parse("Kw[i]p")) == Language.PLKw
    assert classify_language(parse("Kw[i]p & K[i]q")) == Language.PLKwK
    assert classify_language(parse("[p]Kw[i]q")) == Language.PLKwA
    assert classify_language(parse("[p]K[i]q")) == Language.PLKwAK
    assert in_language(parse("Kw[i]p"), Language.PLKwA)
    assert not in_language(parse("K[i]p"), Language.PLKw)
    assert in_language(parse("p | bot"), Language.EL)


def test_enumeration_counts_match_recurrence():
    cases = [
        (["p"], ["i"], Language.PLKw, 5, 202),
        (["p"], ["i"], Language.PLKw, 6, 746),
        (["p", "q"], ["i"], Language.PLKw, 6, 1782),
        (["p"], ["i"], Language.EL, 5, 202),
        (["p"], ["i"], Language.PLKwK, 4, 120),
        (["p"], ["i"], Language.PLKwA, 4, 86),
        (["p", "q"], ["i", "j"], Language.PLKwAK, 4, 756),
    ]
    for props, agents, lang, size, pinned in cases:
        forms = list(enumerate_formulas(props, agents, lang, size))
        assert len(forms) == pinned
        assert len(set(forms)) == pinned
        assert count_formulas(len(props), len(agents), lang, size) == pinned
        for f in forms:
            assert node_count(f) <= size
            assert in_language(f, lang)


def test_enumeration_ordering_and_membership():
    forms = list(enumerate_formulas(["p"], ["i"], Language.PLKw, 4))
    sizes = [node_count(f) for f in forms]
    assert sizes == sorted(sizes)
    assert forms[0] == TOP
    assert Kw("i", And(P, P)) in forms
    # the modalities and announcements of each language come from its operator set
    size_two = {lang: [render(f) for f in enumerate_formulas(["p"], ["i"], lang, 2)][2:]
                for lang in Language}
    assert size_two == {
        Language.EL: ["~top", "~p", "K[i]top", "K[i]p"],
        Language.PLKw: ["~top", "~p", "Kw[i]top", "Kw[i]p"],
        Language.PLKwK: ["~top", "~p", "Kw[i]top", "Kw[i]p", "K[i]top", "K[i]p"],
        Language.PLKwA: ["~top", "~p", "Kw[i]top", "Kw[i]p"],
        Language.PLKwAK: ["~top", "~p", "Kw[i]top", "Kw[i]p", "K[i]top", "K[i]p"],
    }
    assert render(list(enumerate_formulas(["p"], ["i"], Language.PLKwA, 3))[-1]) == "[p]p"
