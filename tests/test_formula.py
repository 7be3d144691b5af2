"""Formula AST, parser, printer, enumerator."""

import ast
import copy
import dataclasses
import gc
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    Dia,
    count_formulas,
    enumerate_formulas,
    node_count,
    random_formula,
    reference_operators,
    reference_parse,
)
from kwl import formula
from kwl.decide import sat, valid
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
    in_language,
    parse,
    props_of,
    render,
    subformulas,
    substitute,
)
from kwl.proof import Derivation, Step, check_derivation, instantiate, is_bool_taut
from kwl.semantics import FrameClass, KripkeModel, frame_valid, mc, model_valid
from kwl.translate import el_to_kw, kw_to_el, reduce

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


# what an edit puts into a text: every token, pieces of them, and characters
# that no token holds
_EDITS = ("~", "&", "|", "->", "<->", "-", "<", ">", "(", ")", "[", "]", "Kw", "K", "p", "q",
          "I", "1", "_", " ", "top", "bot", "@")

_PARSE_EDGES = ("", " ", "p", "(", ")", "[", "]", "~", "p q", "p)", "p]", "(p", "[p", "[p)",
                "(p]", "Kw", "Kw[", "Kw[i", "Kw[i]", "Kw[I]p", "K[1x]p", "K p", "K[top]p",
                "Top", "& p", "p -> -> q", "[p]q & r", "p @ q")


def _parse_outcome(parser, text: str):
    try:
        return parser(text)
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected


def test_parse_agrees_with_the_reference_parser():
    # the recursive-descent parser that parse replaced referees it: the same
    # node, or the same error text, offset and expected tokens, on rendered
    # random formulas, on copies of them with one to three edits, and on edges
    rng = random.Random(1961)
    rendered = [render(random_formula(rng, 5, props=("p", "q", "r"), agents=("i", "j"),
                                      lang=Language.PLKwAK)) for _ in range(20_000)]
    edited = []
    for text in rendered:
        for _ in range(rng.randint(1, 3)):  # a deletion, an insertion or a replacement
            at, edit = rng.randrange(len(text) + 1), rng.randrange(3)
            piece = "" if edit == 0 else rng.choice(_EDITS)
            text = text[:at] + piece + text[at + (edit != 1):]
        edited.append(text)
    texts = rendered + edited + list(_PARSE_EDGES)
    parsed = 0
    for text in texts:
        expected = _parse_outcome(reference_parse, text)
        got = _parse_outcome(parse, text)
        if isinstance(expected, Formula):
            assert got is expected, text
            parsed += 1
        else:
            assert got == expected, text
    assert len(texts) == 40_028 and 20_000 < parsed < 40_000


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
             Kw("i", P), K("i", P), Dia("i", P), Announce(P, Q)]
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


def _chain(depth, f):
    for _ in range(depth):
        f = Not(f)
    return f


def test_deep_formulas_are_walked_without_recursion():
    f = _chain(5000, Kw("i", P))
    assert props_of(f) == {"p"}
    assert agents_of(f) == {"i"}
    assert in_language(f, Language.PLKw)
    assert classify_language(f) == Language.PLKw
    # the rewrites fold without recursion too
    g = _chain(5000, K("i", P))
    assert substitute(f, "p", Q) == _chain(5000, Kw("i", Q))
    assert reduce(f) is f
    assert reduce(_chain(5000, Announce(P, Q))) == _chain(5000, Implies(P, Q))
    assert kw_to_el(f) == _chain(5000, Or(K("i", P), K("i", Not(P))))
    assert el_to_kw(g) == _chain(5000, And(P, Kw("i", P)))
    assert instantiate(_chain(5000, K("I", Prop("A"))), {"A": Q, "I": "j"}) == \
        _chain(5000, K("j", Q))
    # a run of ~ takes one stack frame in the tableau and the evaluator
    assert sat(f, FrameClass.K).satisfiable
    assert not valid(f, FrameClass.K).valid
    assert mc(_M, "s", f) and model_valid(_M, f) and frame_valid(_M, f)
    assert not mc(_M, "s", Not(f))
    # render and complexity take no stack frame per level, whatever the shape
    assert render(f) == "~" * 5000 + "Kw[i]p"
    assert complexity(f) == 5000 + complexity(Kw("i", P))
    n = 5000
    chains = (  # (one level over g, the text, the weight) of n levels over q
        (lambda g: And(P, g), "p & (" * (n - 1) + "p & q" + ")" * (n - 1), n + 1),
        (lambda g: And(g, P), "q" + " & p" * n, n + 1),
        (lambda g: Implies(P, g), "p -> " * n + "q", n + 1),
        (lambda g: Kw("i", g), "Kw[i]" * n + "q", 2 * n + 1),
        (lambda g: K("i", g), "K[i]" * n + "q", 2 * n + 1),
        (lambda g: Announce(P, g), "[p]" * n + "q", 5 ** n),
    )
    for build, text, weight in chains:
        g = Q
        for _ in range(n):
            g = build(g)
        assert render(g) == text
        assert parse(text) is g
        assert complexity(g) == weight
        reduced = reduce(g)
        assert reduced is g if type(g) is not Announce else classify_language(reduced) == Language.EL


_M = KripkeModel(["s", "t"], ["i"], {"i": [("s", "t"), ("t", "t")]}, {"p": ["t"]})

# every public function that takes a formula; the rewrites refuse the other language
_AT_PARSE_DEPTH = {
    "render": render,
    "complexity": complexity,
    "substitute": lambda f: substitute(f, "p", Q),
    "classify_language": classify_language,
    "in_language": lambda f: in_language(f, Language.PLKwK),
    "props_of": props_of,
    "agents_of": agents_of,
    "reduce": reduce,
    "kw_to_el": kw_to_el,
    "el_to_kw": el_to_kw,
    "instantiate": lambda f: instantiate(f, {}),
    "is_bool_taut": is_bool_taut,
    "sat": lambda f: sat(f, FrameClass.K),
    "valid": lambda f: valid(f, FrameClass.K),
    "mc": lambda f: mc(_M, "s", f),
    "model_valid": lambda f: model_valid(_M, f),
    "frame_valid": lambda f: frame_valid(_M, f),
    "check_derivation": lambda f: check_derivation(Derivation("PLKw", (Step(1, f, "taut"),))),
}


def test_every_public_function_takes_what_parse_accepts():
    for atom, refused in (("Kw[i]p", {"el_to_kw", "check_derivation"}),
                          ("K[i]p", {"kw_to_el", "check_derivation"})):
        # parse reads any depth; a run of ~ deeper than the interpreter's stack
        f = parse("~" * 5000 + atom)
        outcomes = {}
        for name, call in _AT_PARSE_DEPTH.items():
            try:
                call(f)
                outcomes[name] = "answered"
            except RecursionError:
                outcomes[name] = "RecursionError"
            except ValueError:
                outcomes[name] = "refused"  # outside the function's language
        assert outcomes == {name: "refused" if name in refused else "answered"
                            for name in _AT_PARSE_DEPTH}, atom


def test_the_walks_that_recurse_are_these():
    # the functions of src/kwl that call themselves, by name or as a method;
    # a call through super() is not one.  A new recursive walk is a decision:
    # it goes on this list and on the README's.  parse and the tableau's
    # search are loops.
    def calls_itself(fn: ast.FunctionDef) -> bool:
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Name) and callee.id == fn.name:
                return True
            if (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                    and ast.unparse(callee.value) != "super()"):
                return True
        return False

    found = set()
    for path in Path(formula.__file__).parent.glob("*.py"):
        pending = [(ast.parse(path.read_text()), path.stem)]
        while pending:
            node, name = pending.pop()
            for child in ast.iter_child_nodes(node):
                inner = name
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{name}.{child.name}"
                    if isinstance(child, ast.FunctionDef) and calls_itself(child):
                        found.add(inner)
                pending.append((child, inner))
    assert found == {"decide._Tableau.nnf", "semantics._ext"}


def test_equal_formulas_are_one_node():
    assert Prop("p") is P
    assert Prop(name="p") is P
    assert Kw(agent="i", sub=P) is Kw("i", sub=P) is Kw("i", P)
    assert dataclasses.replace(Kw("i", P), sub=Q) is Kw("i", Q)
    assert dataclasses.replace(Announce(P, Q), body=R) is Announce(P, R)
    assert parse("Kw[i](p & q)") is Kw("i", And(P, Q))
    # the class is part of a node's identity
    assert Dia("i", P) is not K("i", P)
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
    for f in (TOP, P, parse("Kw[i](p -> [q]~r) <-> K[j]bot"), Dia("i", Not(P))):
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
    # parse takes no stack frame per level, whatever the shape
    assert parse("(" * 100_000 + "p" + ")" * 100_000) is P
    text = "~" * 100_000 + "p"
    assert render(parse(text)) == text
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


# the operators each language admits, written out apart from formula._ALLOWED
_ADMITS = {
    Language.EL: {K},
    Language.PLKw: {Kw},
    Language.PLKwK: {Kw, K},
    Language.PLKwA: {Kw, Announce},
    Language.PLKwAK: {Kw, K, Announce},
}


def _assert_language_agrees(f):
    ops = reference_operators(f)
    for lang in Language:
        assert in_language(f, lang) == (ops <= _ADMITS[lang]), (render(f), lang)
    assert classify_language(f) == next(lang for lang in Language if ops <= _ADMITS[lang])


def test_operator_summary_agrees_with_a_full_walk():
    # enumerated formulas share their subformulas, so most are summarised
    # first inside another formula
    for f in enumerate_formulas(["p", "q"], ["i", "j"], Language.PLKwAK, 6):
        _assert_language_agrees(f)
    rng = random.Random(16)
    for lang in Language:
        for _ in range(300):
            _assert_language_agrees(random_formula(rng, 6, agents=("i", "j"), lang=lang))


def test_operator_summary_at_the_edges():
    q = Prop("q_summary_edge")
    announced = Announce(P, q)
    # building a node sets its operator mask (Kw 1, K 2, announcement 4) and
    # weighs nothing
    assert q._ops == 0 and announced._ops == 4 and Kw("i", announced)._ops == 5
    assert not hasattr(q, "_weight") and not hasattr(announced, "_weight")
    assert classify_language(announced) == Language.PLKwA
    assert complexity(announced) == 5
    # q was summarised under an announcement; Kw[i]q must not inherit it
    assert classify_language(Kw("i", q)) == Language.PLKw
    assert complexity(Kw("i", q)) == 3
    assert in_language(Kw("i", q), Language.PLKw)
    assert not in_language(announced, Language.PLKw)
    assert classify_language(K("i", And(q, announced))) == Language.PLKwAK
    assert classify_language(q) == Language.EL
    # deep chains built with the constructors are summarised without recursion
    chains = (
        (lambda f: Kw("i", f), Language.PLKw, Language.EL),
        (lambda f: K("i", f), Language.EL, Language.PLKwA),
        (lambda f: Announce(P, f), Language.PLKwA, Language.PLKwK),
    )
    for build, least, outside in chains:
        f = Prop("deep_summary_edge")
        for _ in range(5000):
            f = build(f)
        assert in_language(f, least) and not in_language(f, outside)
        assert classify_language(f) == least
        assert classify_language(Not(f)) == least
    # copy and pickle give back the interned node, summary and all
    g = Kw("i", announced)
    assert classify_language(g) == Language.PLKwA
    assert complexity(g) == 7
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h is g
        assert classify_language(h) == Language.PLKwA and not in_language(h, Language.PLKw)
        assert complexity(h) == 7


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
