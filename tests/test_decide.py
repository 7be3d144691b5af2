"""Tableau satisfiability and validity against independent oracles."""

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from types import SimpleNamespace

import pytest

from helpers import (
    ROOT,
    Dia,
    ReferenceTableau,
    balanced_disjunctions,
    close_relation,
    decode_nnf,
    enumerate_class_models,
    enumerate_formulas,
    random_formula,
    random_model,
    reference_mc,
)
from kwl import formula
from kwl.decide import BudgetExceeded, DecisionResult, Validity, _Tableau, sat, valid
from kwl.fixtures import m1
from kwl.formula import (
    Announce,
    Formula,
    Iff,
    Implies,
    K,
    Kw,
    Language,
    Not,
    Prop,
    conj,
    disj,
    fold,
    parse,
    render,
    subformulas,
)
from kwl.proof import gen_prop19
from kwl.semantics import (
    FrameClass,
    FrameProperty,
    KripkeModel,
    frame_properties,
    mc,
    model_valid,
    satisfies_class,
)
from kwl.translate import reduce, step

# formula, class, expected validity
BATTERY = [
    ("Kw[i]p | ~Kw[i]p", FrameClass.K, True),
    ("Kw[i](p -> q) & Kw[i]p -> Kw[i]q", FrameClass.K, False),
    ("Kw[i]p -> Kw[i]~p", FrameClass.K, True),
    ("Kw[i]p <-> Kw[i]~p", FrameClass.K, True),
    ("Kw[i]p & Kw[i]q -> Kw[i](p & q)", FrameClass.K, True),
    ("Kw[i]p -> Kw[i](p & q) | Kw[i](~p & r)", FrameClass.K, True),
    ("Kw[i](p -> q) & Kw[i](~p -> q) -> Kw[i]q", FrameClass.K, True),
    ("Kw[i]p -> p", FrameClass.T, False),
    ("Kw[i]p & Kw[i](p -> q) & p -> Kw[i]q", FrameClass.T, True),
    ("Kw[i]p & Kw[i](p -> q) & p -> Kw[i]q", FrameClass.K, False),
    ("Kw[i]p -> Kw[i](Kw[i]p | q)", FrameClass.K4, True),
    ("Kw[i]p -> Kw[i](Kw[i]p | q)", FrameClass.K, False),
    ("Kw[i]p -> Kw[i]Kw[i]p", FrameClass.K4, True),
    ("~Kw[i]p -> Kw[i](~Kw[i]p | q)", FrameClass.K5, True),
    ("~Kw[i]p -> Kw[i]~Kw[i]p", FrameClass.K5, True),
    ("~Kw[i]p -> Kw[i]~Kw[i]p", FrameClass.K, False),
    ("Kw[i]p -> Kw[i]Kw[i]p", FrameClass.K45, True),
    ("~Kw[i]p -> Kw[i]~Kw[i]p", FrameClass.K45, True),
    ("Kw[i]p -> Kw[i]Kw[i]p", FrameClass.S4, True),
    ("~Kw[i]p -> Kw[i]~Kw[i]p", FrameClass.S5, True),
    ("Kw[i]p", FrameClass.PF, True),
    ("Kw[i]p", FrameClass.K, False),
    ("K[i]p -> p", FrameClass.T, True),
    ("K[i]p -> p", FrameClass.D, False),
    ("K[i]p -> ~K[i]~p", FrameClass.D, True),
    ("K[i]p -> ~K[i]~p", FrameClass.K, False),
    ("p -> K[i]~K[i]~p", FrameClass.B, True),
    ("p -> K[i]~K[i]~p", FrameClass.T, False),
    ("K[i]p -> K[i]K[i]p", FrameClass.K4, True),
    ("~K[i]p -> K[i]~K[i]p", FrameClass.K5, True),
    # a world without a parent is in no cluster: its boxes do not move on;
    # a world with one is, and they do
    ("K[i]p -> K[i]K[i]p", FrameClass.K5, False),
    ("K[i](K[i]p -> K[i]K[i]p)", FrameClass.K5, True),
    ("[p]q <-> (p -> q)", FrameClass.K, True),
    ("p -> [q]p", FrameClass.K, True),
    ("[p]Kw[i]q <-> (p -> Kw[i][p]q | Kw[i][p]~q)", FrameClass.K, True),
    ("~Kw[i]q -> [q]~Kw[i]q", FrameClass.K, False),
    ("[p][q]r <-> [p & [p]q]r", FrameClass.K, True),
    # announcements together with K: [a]K[i]b reduces to a -> K[i][a]b
    ("[p]K[i]q <-> (p -> K[i](p -> q))", FrameClass.K, True),
    ("[p]K[i]p", FrameClass.K, True),
    ("[p & ~K[i]p]K[i]p", FrameClass.S5, True),
    ("[p]K[i]q", FrameClass.K, False),
    ("[~K[i]p]K[i]p", FrameClass.T, False),
    ("K[i]p & [q]r", FrameClass.S5, False),
]


def test_validity_battery():
    for text, fc, expected in BATTERY:
        v = valid(parse(text), fc)
        assert v.valid == expected, (text, fc)


def test_invalid_comes_with_verified_countermodel():
    for text, fc, expected in BATTERY:
        if expected:
            continue
        v = valid(parse(text), fc)
        cm = v.countermodel
        assert cm is not None and cm.point is not None
        assert not mc(cm, cm.point, parse(text))
        assert satisfies_class(cm, fc)


def test_sat_returns_verified_model():
    rng = random.Random(53)
    n_sat = 0
    for _ in range(200):
        f = random_formula(rng, 3, lang=Language.PLKw)
        fc = rng.choice(list(FrameClass))
        r = sat(f, fc)
        assert isinstance(r, DecisionResult)
        if r.satisfiable:
            n_sat += 1
            assert mc(r.model, r.model.point, f)
            assert satisfies_class(r.model, fc)
        else:
            assert r.model is None
            # nothing satisfiable slips through: spot-check random class models
            for _ in range(20):
                m = random_model(rng, fc)
                assert not any(mc(m, w, f) for w in m.worlds)
    assert n_sat > 100


def test_unsat_pins():
    assert not sat(parse("Kw[i]p & ~Kw[i]p"), FrameClass.K).satisfiable
    assert not sat(parse("bot"), FrameClass.K).satisfiable
    assert not sat(parse("K[i]p & ~K[i]p & q"), FrameClass.K).satisfiable
    assert not sat(parse("~Kw[i]p"), FrameClass.PF).satisfiable
    assert not sat(parse("K[i]bot"), FrameClass.D).satisfiable
    assert sat(parse("K[i]bot"), FrameClass.K).satisfiable


def test_valid_invalid_surface():
    v = valid(parse("p | ~p"), FrameClass.K)
    assert isinstance(v, Validity) and v.valid and v.countermodel is None
    assert v.prefixes >= 1 and v.branches >= 1


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceeded):
        valid(parse("Kw[i]p -> Kw[i]Kw[i]p"), FrameClass.K4, budget=5)


_SIX_ANNOUNCEMENTS = "[Kw[i]p5][Kw[i]p4][Kw[i]p3][Kw[i]p2][Kw[i]p1][Kw[i]p0]Kw[i]q"


def test_budget_bounds_preprocessing(nodes_built):
    # as trees, the reduction of the six announcements has 59,374 nodes and
    # the NNF of Kw[i]^18 p 1,179,645; each tick of the budget builds a few
    # nodes.  Kw[i]^18 p is decided within 100 ticks, the rest run out
    chain = _kw_chain(18)
    for f in (parse(_SIX_ANNOUNCEMENTS), chain):
        for budget in (1, 10, 100):
            nodes_built.clear()
            if f is chain and budget == 100:
                assert sat(f, FrameClass.K, budget=budget).satisfiable
            else:
                with pytest.raises(BudgetExceeded):
                    sat(f, FrameClass.K, budget=budget)
            assert len(nodes_built) <= 2 * budget + 20, (render(f), budget)


@pytest.mark.parametrize("fc, least", [(FrameClass.K, 40), (FrameClass.S5, 75)])
def test_a_complement_lookup_ticks_nothing(fc, least):
    # the NNF misses, worlds and label entries of sat(Kw[i]^18 p): each
    # disjunct's complement is found at code ^ 1 and adds no tick
    f = _kw_chain(18)
    r = sat(f, fc, budget=least)
    assert r.satisfiable and r.ticks == least
    with pytest.raises(BudgetExceeded):
        sat(f, fc, budget=least - 1)


def test_budget_bounds_sat_on_a_reduced_dag(nodes_requested, monkeypatch):
    # as a tree, the reduction of ten Kw announcements has 37,109,374 nodes, as
    # a DAG 91; the walks before the tableau visit each distinct node once, so
    # they ask for a node's children a few times, not once per path
    g = reduce(parse("".join(f"[Kw[i]p{n}]" for n in range(9, -1, -1)) + "Kw[i]q"))
    visits = []

    def counting(children):
        def wrapped(self):
            visits.append(None)
            assert len(visits) <= 1000, "a walk visits a shared node once per path"
            return children(self)
        return wrapped

    for cls in (Formula, *_node_shapes(Formula)):
        if "children" in vars(cls):
            monkeypatch.setattr(cls, "children", counting(cls.children))
    nodes_requested.clear()
    with pytest.raises(BudgetExceeded):
        sat(g, FrameClass.K, budget=1)
    assert len(nodes_requested) < 20


def _node_shapes(cls):
    """Every subclass of cls, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_shapes(sub)


def test_preprocessing_shares_copied_subformulas(nodes_built):
    # as a tree, the NNF of Kw[i]^40 p has about 5 * 10^12 nodes; shared, a few per Kw
    r = valid(_kw_chain(40), FrameClass.K, budget=2000)
    assert (r.valid, r.prefixes, r.branches) == (False, 81, 1)
    assert len(nodes_built) < 400
    nodes_built.clear()
    assert sat(parse(_SIX_ANNOUNCEMENTS), FrameClass.K, budget=1000).satisfiable
    assert len(nodes_built) < 400


def test_announcements_with_k_are_decided():
    # sat and valid once rejected announcements together with K; both now
    # decide them, with re-checked models
    r = sat(parse("[p]K[i]q"), FrameClass.K)
    assert r.satisfiable and satisfies_class(r.model, FrameClass.K)
    assert reference_mc(r.model, r.model.point, parse("[p]K[i]q"))
    v = valid(parse("K[i]p & [q]r"), FrameClass.K)
    assert not v.valid and not reference_mc(v.countermodel, v.countermodel.point, parse("K[i]p & [q]r"))


def test_announcements_with_k_agree_with_random_models():
    # 3,000 calls with two agents; each random model has a relation for both
    rng = random.Random(73)
    classes = list(FrameClass)
    for n in range(1500):
        f = random_formula(rng, rng.randint(2, 4), agents=("i", "j"), lang=Language.PLKwAK)
        fc = classes[n % len(classes)]
        v, r = valid(f, fc), sat(f, fc)
        if v.valid:
            for _ in range(10):
                m = random_model(rng, fc, agents=("i", "j"))
                assert all(reference_mc(m, w, f) for w in m.worlds), (render(f), fc)
        else:
            cm = v.countermodel
            assert not reference_mc(cm, cm.point, f) and satisfies_class(cm, fc)
        if r.satisfiable:
            assert reference_mc(r.model, r.model.point, f) and satisfies_class(r.model, fc)
        else:
            for _ in range(10):
                m = random_model(rng, fc, agents=("i", "j"))
                assert not any(reference_mc(m, w, f) for w in m.worlds), (render(f), fc)


def test_announcement_formulas_reduce_then_decide():
    v = valid(parse("[p](q & r) <-> [p]q & [p]r"), FrameClass.K)
    assert v.valid
    r = sat(parse("[p]~Kw[i]q & p & Kw[i]q"), FrameClass.K)
    if r.satisfiable:
        assert mc(r.model, r.model.point, parse("[p]~Kw[i]q & p & Kw[i]q"))


def test_agreement_with_bounded_enumeration():
    """Two agents, every class: a valid formula holds on every model of at
    most 2 worlds (3 over S5), and a countermodel is one."""
    forms = list(enumerate_formulas(["p"], ["i", "j"], Language.PLKw, 4))
    assert len(forms) == 120
    for fc in FrameClass:
        models = enumerate_class_models(3 if fc is FrameClass.S5 else 2, fc, agents=("i", "j"))
        for f in forms:
            v = valid(f, fc)
            if v.valid:
                assert all(model_valid(m, f) for m in models), (render(f), fc)
            else:
                cm = v.countermodel
                assert not reference_mc(cm, cm.point, f), (render(f), fc)
                assert satisfies_class(cm, fc), (render(f), fc)


def test_agreement_with_random_models_multi_prop():
    rng = random.Random(59)
    for _ in range(150):
        f = random_formula(rng, 3, lang=Language.PLKw)
        fc = rng.choice([FrameClass.K, FrameClass.D, FrameClass.T, FrameClass.B,
                         FrameClass.K4, FrameClass.K5, FrameClass.K45,
                         FrameClass.S4, FrameClass.S5])
        v = valid(f, fc)
        if v.valid:
            for _ in range(25):
                m = random_model(rng, fc)
                assert model_valid(m, f), (render(f), fc)
        else:
            cm = v.countermodel
            assert not mc(cm, cm.point, f)
            assert satisfies_class(cm, fc)


def _with_self_loops(m: KripkeModel) -> KripkeModel:
    """m with a loop added at every world that has no successor, per agent."""
    rel = {a: [*m.rel[a], *((w, w) for w in m.worlds if not m.successors(a, w))]
           for a in m.agents}
    return KripkeModel(m.worlds, m.agents, rel, m.val, m.point)


def test_k_free_formulas_cannot_tell_k_from_d_or_b():
    """A cross-class oracle.  The paper finds that knowing-whether logic
    cannot define many common frame properties; consistent with that, a
    formula without K has one validity verdict over K, D and B.  A K
    countermodel with a loop at each dead end is a D countermodel: a world
    with at most one successor knows whether anything."""
    rng = random.Random(10)
    shapes = ((Language.PLKw, ("i",)), (Language.PLKw, ("i", "j")), (Language.PLKwA, ("i",)))
    disagree = []
    for n in range(3000):
        lang, agents = shapes[n % 3]
        f = random_formula(rng, 4, agents=agents, lang=lang)
        try:
            verdicts = [valid(f, fc, budget=5000)
                        for fc in (FrameClass.K, FrameClass.D, FrameClass.B)]
        except BudgetExceeded:
            continue
        if len({v.valid for v in verdicts}) > 1:
            disagree.append(render(f))
        elif not verdicts[0].valid:
            m = _with_self_loops(verdicts[0].countermodel)
            assert satisfies_class(m, FrameClass.D) and not reference_mc(m, m.point, f), render(f)
    assert not disagree, f"{len(disagree)} disagree, the shortest {min(disagree, key=len)}"


def test_multi_agent():
    assert valid(parse("Kw[i]p | ~Kw[i]p | Kw[j]q"), FrameClass.K).valid
    v = valid(parse("Kw[i]p -> Kw[j]p"), FrameClass.S5)
    assert not v.valid
    assert satisfies_class(v.countermodel, FrameClass.S5)


def test_tableau_is_independent_of_the_hash_seed(tmp_path):
    formula = "Kw[i](p | q) & Kw[j]r -> Kw[i]Kw[j](p & r) | Kw[j]Kw[i]q"
    prefixes = ("from kwl.decide import valid; from kwl.proof import gen_prop19;"
                "from kwl.semantics import FrameClass;"
                "print(valid(gen_prop19(3).steps[-1].formula, FrameClass.K).prefixes)")
    countermodels, counts = set(), set()
    for seed in range(4):
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        out = tmp_path / f"cm{seed}.json"
        done = subprocess.run([sys.executable, "-m", "kwl.cli", "decide", "--class", "K",
                               formula, "--countermodel", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (1, "invalid\n")
        countermodels.add(out.read_bytes())
        done = subprocess.run([sys.executable, "-c", prefixes], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        counts.add(done.stdout)
    assert len(countermodels) == 1
    assert len(counts) == 1


def test_tableau_is_independent_of_memory_addresses(tmp_path):
    # interned nodes hash by address; a process that first builds 10,000
    # other formulas lays the same ones out elsewhere
    text = "Kw[i](p | q) & Kw[j]r -> Kw[i]Kw[j](p & r) | Kw[j]Kw[i]q"
    churn = ("from kwl.formula import Kw, Not, Prop;"
             "keep = [Kw('j', Not(Prop(f'x{n}'))) for n in range(10000)];")
    written = []
    for n, prelude in enumerate(("", churn)):
        out = tmp_path / f"cm{n}.json"
        code = (f"{prelude}import sys; from kwl.cli import main;"
                f"sys.exit(main(['decide', '--class', 'K', {text!r}, "
                f"'--countermodel', {str(out)!r}]))")
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (1, "invalid\n")
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_s5_two_agent_kw_chain():
    # valid over S5: Kw[j]Kw[j]p is, and necessitation gives the rest
    assert valid(parse("Kw[j]Kw[i]Kw[j]Kw[j]p"), FrameClass.S5).valid


def test_s5_two_agent_kw_chain_of_five():
    # valid over S5: Kw[i]Kw[i]Kw[j]p is, and necessitation gives the rest
    assert valid(parse("Kw[i]Kw[j]Kw[i]Kw[i]Kw[j]p"), FrameClass.S5).valid


def test_k45_two_agent_model_is_rechecked():
    f = parse("~Kw[j](~K[i]q <-> Kw[i]q)")
    r = sat(f, FrameClass.K45)
    assert r.satisfiable
    assert reference_mc(r.model, r.model.point, f) and satisfies_class(r.model, FrameClass.K45)


def test_two_agent_kw_chain_sweep():
    # every chain of length 1 to 6 over three inner formulas, and its
    # negation, over every class: 7,560 calls, none of which may run out of
    # budget or fail the re-check of its model
    failures = set()
    for inner in ("p", "p | q", "p & ~q"):
        for length in range(1, 7):
            for agents in product("ij", repeat=length):
                f = parse("".join(f"Kw[{a}]" for a in agents) + f"({inner})")
                for g in (f, Not(f)):
                    for fc in FrameClass:
                        try:
                            sat(g, fc, budget=50_000)
                        except RuntimeError:
                            failures.add((fc, render(g)))
    assert failures == set()


def test_backjumping_skips_splits_a_clash_does_not_use():
    # chronological backtracking closes all 4,096 combinations of the disjuncts
    f = parse(" & ".join(f"(a{n} | b{n})" for n in range(12)) + " & K[i]p & ~K[i]p")
    for fc in FrameClass:
        r = sat(f, fc)
        assert (r.satisfiable, r.prefixes, r.branches) == (False, 2, 1), fc


def test_a_clash_beyond_an_edge_depends_on_the_split_that_made_it():
    # the left disjunct's successor holds r and ~r; the right disjunct t is open
    f = parse("(~K[i]s | t) & K[i]r & K[i]~r")
    serial = {FrameClass.D, FrameClass.T, FrameClass.S4, FrameClass.S5}
    for fc in FrameClass:
        r = sat(f, fc)
        assert r.satisfiable == (fc not in serial), fc


def test_a_closed_branch_leaves_nothing_behind():
    # each left disjunct makes w1 from a diamond, with a box beside it, and
    # clashes there; the right child sees none of that branch's worlds, edges,
    # boxes or firings, and in the second formula fires the diamond again
    for fc in FrameClass:
        r = sat(parse("(~K[i]~q & K[i]~q) | r"), fc)
        assert (r.prefixes, r.branches) == (2, 2), fc
        assert (r.model.worlds, r.model.to_dict()["val"]) == (
            ("w0",), {"q": [], "r": ["w0"]}), fc
        r = sat(parse("~K[i]~q & (K[i]~q & s | r)"), fc)
        assert (r.prefixes, r.branches) == (3, 2), fc
        assert (r.model.worlds, r.model.to_dict()["val"]) == (
            ("w0", "w1"), {"q": ["w1"], "r": ["w0"], "s": []}), fc


def _random_cnf(rng):
    # 25-48 clauses of three literals over ten letters, a Kw literal in a fifth
    def literal(atom):
        return Not(atom) if rng.random() < 0.5 else atom

    clauses = []
    for _ in range(rng.randint(25, 48)):
        atoms = [Prop(f"p{rng.randrange(10)}") for _ in range(3)]
        if rng.random() < 0.2:
            atoms[0] = Kw("i", atoms[0])
        clauses.append(disj([literal(a) for a in atoms]))
    return conj(clauses)


def test_the_search_loop_agrees_with_the_recursive_referee(monkeypatch):
    # 600 calls, 38 of them unsatisfiable, up to 253 branches each: skipping a
    # right child, and winding back before searching one, both show here
    rng = random.Random(0)
    formulas = [_random_cnf(rng) for _ in range(300)]

    def answers():
        out = []
        for f in formulas:
            for fc in (FrameClass.K, FrameClass.S5):
                r = sat(f, fc)
                out.append((r.satisfiable, r.prefixes, r.branches, r.ticks,
                            r.model and r.model.to_dict()))
        return out

    loop = answers()
    monkeypatch.setattr("kwl.decide._Tableau", ReferenceTableau)
    assert answers() == loop
    assert sum(not a[0] for a in loop) == 38


def test_a_search_takes_no_stack_frame_per_split():
    # 1,200 splits on one open branch, deeper than the interpreter's stack
    r = sat(parse(balanced_disjunctions(1200)), FrameClass.K)
    assert (r.satisfiable, r.branches) == (True, 1)


def test_a_one_branch_search_keeps_memory_linear_in_its_depth():
    # valid(Kw[i]^n p, K) has one branch of 2n+1 worlds below n split levels;
    # the search holds that branch once, not once per level above it
    valid(_kw_chain(2), FrameClass.K)  # lazy imports and caches outside the measurement
    peaks = []
    for f in (_kw_chain(100), _kw_chain(200)):
        tracemalloc.start()
        assert valid(f, FrameClass.K).valid is False
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 2.5 * peaks[0], peaks


def test_close_agrees_with_the_pair_set_closure():
    # _close closes successor rows in place; close_relation closes (s, t)
    # pairs, and leaves serial to the caller: a dead end gets a self-loop
    rng = random.Random(31)
    classes = [fc.requirements for fc in FrameClass]
    for k in range(3000):
        props = (classes[k % len(classes)] if k % 2 else
                 frozenset(p for p in FrameProperty if rng.random() < 0.5))
        n = rng.randint(1, 7)
        pairs = {(s, t) for s in range(n) for t in range(n) if rng.random() < 0.25}
        expected = [0] * n
        for s, t in close_relation(pairs, range(n), props):
            expected[s] |= 1 << t
        if FrameProperty.SERIAL in props:
            expected = [row or 1 << w for w, row in enumerate(expected)]
        rows = [sum(1 << t for s2, t in pairs if s2 == s) for s in range(n)]
        tab = _Tableau(SimpleNamespace(requirements=props), ["i"], 0)
        assert tab._close(rows) == expected, (sorted(p.value for p in props), sorted(pairs))


@pytest.mark.parametrize("fc", [FrameClass.S5, FrameClass.K45, FrameClass.K5])
def test_a_wide_conjunction_of_diamonds_keeps_memory_linear_in_its_width(fc):
    # ~K[i]p0 & ... & ~K[i]p(n-1) gives the root n children in one euclidean
    # cluster of about n^2 edges, which extract keeps as n successor rows
    def wide(n):
        return conj([Not(K("i", Prop(f"p{k}"))) for k in range(n)])

    sat(wide(2), fc)  # lazy imports and caches outside the measurement
    peaks = []
    for f in (wide(40), wide(80)):
        tracemalloc.start()
        assert sat(f, fc).satisfiable
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 3 * peaks[0], peaks


def test_a_complement_in_normal_form_shape_ticks_as_the_input_node():
    # ~(p & q) ticks nnf once per node of p & q under negation; the
    # complements that the split looks up later were made with those codes
    # and tick nothing
    f = parse("((p & q) | r) & ~(p & q) & ~r")
    r = sat(f, FrameClass.K, budget=17)
    assert not r.satisfiable and r.ticks == 17
    with pytest.raises(BudgetExceeded):
        sat(f, FrameClass.K, budget=16)


def test_sat_builds_no_formula_node(monkeypatch):
    # the normal form is made of codes: without announcements, sat builds no
    # node, and the model's re-check with mc builds none either
    f = parse("(Kw[i]p | ~K[j](q -> r)) & (p <-> ~q) & ~Kw[j](r & K[i]p)")
    sizes = []
    extract = _Tableau.extract

    def counted(self, *args):
        sizes.append(len(formula._NODES))
        return extract(self, *args)

    monkeypatch.setattr(_Tableau, "extract", counted)
    gc.collect()
    before = len(formula._NODES)
    assert sat(f, FrameClass.K).satisfiable
    assert sizes == [before]


def test_small_dag_is_refuted_within_a_small_budget():
    # chronological backtracking exhausted a budget of 10^6 here after 5.4 s
    f = parse("~[[[q]q & (r & q) -> [p | p](p -> r)]Kw[i](~q -> r & r)][p]Kw[i](q -> Kw[j]p)")
    for fc in (FrameClass.K, FrameClass.T, FrameClass.S5):
        r = sat(f, fc, budget=10_000)
        assert not r.satisfiable and r.branches <= 20, (fc, r.branches)


@pytest.fixture(scope="module")
def nnf_inputs():
    rng = random.Random(61)
    forms = list(enumerate_formulas(["p"], ["i", "j"], Language.PLKwK, 5))
    # the enumerator builds only top, p, ~, & and the modalities
    forms += [random_formula(rng, 4, agents=("i", "j"), lang=Language.PLKwK)
              for _ in range(400)]
    return forms


def _nnf(f, neg, pf):
    """The negation normal form that one call of sat would build, decoded.
    f may hold the Dia of an earlier output, which is read as ~K~."""
    tab = _Tableau(FrameClass.PF if pf else FrameClass.K, [], 10**6)
    return decode_nnf(tab, tab.nnf(_undia(f), neg))


def _undia(f):
    """Dia(a, g) read as ~K[a]~g, so that mc and nnf can take the output of _nnf."""
    return fold(f, lambda g, image: Not(K(g.agent, Not(image(g.sub)))) if type(g) is Dia
                else g.map(image))


def test_walks_reject_what_is_not_a_formula():
    """Each walk over formulas ends in a TypeError on a node it does not know:
    a string, or a node class that kwl does not define."""
    for call in (lambda: mc(m1(), "s", "p"),
                 lambda: render(Dia("i", Prop("p"))),
                 lambda: step(Announce(Prop("p"), Dia("i", Prop("p")))),
                 lambda: _Tableau(FrameClass.K, [], 10).nnf("p", False)):
        with pytest.raises(TypeError, match="not a formula"):
            call()


@pytest.mark.parametrize("pf", [False, True])
def test_nnf_unfolds_announcements_as_reduce_does(pf):
    # nnf rewrites [a]b by one reduction axiom and goes on with the result;
    # on every input it builds the very node it builds from reduce's output
    rng = random.Random(71)
    for _ in range(750):
        f = random_formula(rng, rng.randint(2, 5), agents=("i", "j"), lang=Language.PLKwA)
        for neg in (False, True):
            assert _nnf(f, neg, pf) is _nnf(reduce(f), neg, pf), (render(f), neg)


@pytest.mark.parametrize("pf", [False, True])
def test_nnf_neg_flag_is_an_outer_not(nnf_inputs, pf):
    for f in nnf_inputs:
        assert _nnf(f, True, pf) == _nnf(Not(f), False, pf), render(f)


@pytest.mark.parametrize("pf", [False, True])
def test_nnf_output_is_kw_free_and_negates_only_props(nnf_inputs, pf):
    for f in nnf_inputs:
        for neg in (False, True):
            for g in subformulas(_nnf(f, neg, pf)):
                assert not isinstance(g, (Kw, Implies, Iff, Announce)), render(f)
                assert not isinstance(g, Not) or isinstance(g.sub, Prop), render(f)


@pytest.mark.parametrize("pf", [False, True])
def test_nnf_negation_is_an_involution_on_its_output(nnf_inputs, pf):
    for f in nnf_inputs:
        g = _nnf(f, False, pf)
        assert _nnf(_nnf(g, True, pf), True, pf) == g, render(f)


@pytest.mark.parametrize("pf", [False, True])
def test_nnf_preserves_truth(nnf_inputs, pf):
    # over partial-functional frames Kw holds everywhere, so only there may it become top
    rng = random.Random(67)
    fc = FrameClass.PF if pf else FrameClass.K
    models = [random_model(rng, fc, agents=("i", "j")) for _ in range(12)]
    for f in nnf_inputs:
        for neg in (False, True):
            g = _undia(_nnf(f, neg, pf))
            target = Not(f) if neg else f
            for m in models:
                for w in m.worlds:
                    assert mc(m, w, g) == mc(m, w, target), (render(f), neg, w)


def _kw_chain(n):
    f = Prop("p")
    for _ in range(n):
        f = Kw("i", f)
    return f


_PROP19_3 = gen_prop19(3).steps[-1].formula
# the children of each world of kw-chain-10-K's countermodel that has any
_KW_CHAIN_CHILDREN = {0: (1, 2), **{s: (s + 2, s + 3) for s in range(1, 18, 2)}}
_TWO_AGENTS = parse("~K[j](r & ~p) & K[i](~p | r) & ~K[j](~r & ~s) & ~K[i](~p & r)"
                    " & ~K[j](q & ~q)")

# (call, formula, class, prefixes, branches, model JSON or None); the model is
# sat's model or valid's countermodel.  The figures pin the tableau's search
# order: the order in which rules fire and bodies reach labels.
WORK_PINS = [
    pytest.param(valid, _PROP19_3, FrameClass.K, 53, 22, None, id="prop19-3-K"),
    pytest.param(valid, _PROP19_3, FrameClass.T, 53, 23, None, id="prop19-3-T"),
    pytest.param(valid, _PROP19_3, FrameClass.S5, 53, 23, None, id="prop19-3-S5"),
    # the rest of the classes the decide benchmark times gen_prop19(3) over, and PF
    *(pytest.param(valid, _PROP19_3, fc, 53, 22, None, id=f"prop19-3-{fc.name}")
      for fc in (FrameClass.D, FrameClass.B, FrameClass.K4, FrameClass.K5, FrameClass.K45)),
    pytest.param(valid, _PROP19_3, FrameClass.S4, 53, 23, None, id="prop19-3-S4"),
    pytest.param(valid, _PROP19_3, FrameClass.PF, 1, 1, None, id="prop19-3-PF"),
    pytest.param(valid, _kw_chain(8), FrameClass.S5, 8, 2, None, id="kw-chain-8-S5"),
    pytest.param(
        valid, _kw_chain(10), FrameClass.K, 21, 1,
        '{"worlds":["w0","w1","w2","w3","w4","w5","w6","w7","w8","w9","w10","w11","w12",'
        '"w13","w14","w15","w16","w17","w18","w19","w20"],"agents":["i"],"rel":{"i":['
        '["w0","w1"],["w0","w2"],["w1","w3"],["w1","w4"],["w3","w5"],["w3","w6"],'
        '["w5","w7"],["w5","w8"],["w7","w9"],["w7","w10"],["w9","w11"],["w9","w12"],'
        '["w11","w13"],["w11","w14"],["w13","w15"],["w13","w16"],["w15","w17"],'
        '["w15","w18"],["w17","w19"],["w17","w20"]]},"val":{"p":["w20"]},"point":"w0"}',
        id="kw-chain-10-K"),
    # the same tree, whose spine is w0, w1, w3, ..., w17, with a loop at each
    # world over T, and closed under transitivity over K4
    pytest.param(
        valid, _kw_chain(10), FrameClass.T, 21, 1,
        json.dumps({"worlds": [f"w{n}" for n in range(21)], "agents": ["i"],
                    "rel": {"i": [[f"w{s}", f"w{t}"] for s in range(21)
                                  for t in [s, *_KW_CHAIN_CHILDREN.get(s, ())]]},
                    "val": {"p": [f"w{n}" for n in range(2, 21, 2)]}, "point": "w0"}),
        id="kw-chain-10-T"),
    pytest.param(
        valid, _kw_chain(10), FrameClass.K4, 21, 1,
        json.dumps({"worlds": [f"w{n}" for n in range(21)], "agents": ["i"],
                    "rel": {"i": [[f"w{s}", f"w{t}"] for s in _KW_CHAIN_CHILDREN
                                  for t in range(min(_KW_CHAIN_CHILDREN[s]), 21)]},
                    "val": {"p": ["w20"]}, "point": "w0"}),
        id="kw-chain-10-K4"),
    # a negated <-> becomes (a & ~b) | (~a & b), in that order
    pytest.param(
        valid, parse("(Kw[i]p <-> Kw[j]q) -> Kw[i](p <-> q)"), FrameClass.K, 3, 1,
        '{"worlds":["w0","w1","w2"],"agents":["i","j"],"rel":{"i":[["w0","w1"],["w0","w2"]],'
        '"j":[]},"val":{"p":["w1","w2"],"q":["w2"]},"point":"w0"}',
        id="negated-iff-K"),
    # diamonds of both agents beside boxes over disjunctions: the order in
    # which their bodies reach a successor shows in the model; over PF the
    # diamonds of one agent share their successor
    pytest.param(
        sat, _TWO_AGENTS, FrameClass.K, 5, 1,
        '{"worlds":["w0","w1","w2","w3","w4"],"agents":["i","j"],"rel":{"i":[["w0","w2"]],'
        '"j":[["w0","w1"],["w0","w3"],["w0","w4"]]},"val":{"p":[],"q":[],"r":["w3"],"s":[]},'
        '"point":"w0"}',
        id="two-agents-K"),
    pytest.param(
        sat, _TWO_AGENTS, FrameClass.PF, 3, 1,
        '{"worlds":["w0","w1","w2"],"agents":["i","j"],"rel":{"i":[["w0","w1"]],'
        '"j":[["w0","w2"]]},"val":{"p":["w1"],"q":[],"r":["w1"],"s":["w2"]},"point":"w0"}',
        id="two-agents-PF"),
    # blocking: over S5 worlds 3 and 5 are blocked by world 1, and 4 and 6 by
    # world 2; over K45 worlds 5 and 6 by worlds 3 and 4.  A blocked world
    # stays in the model and is also given its blocker's successors, so each
    # model has its open branch's 7 worlds
    pytest.param(
        valid, parse("~K[i]~Kw[i]q"), FrameClass.S5, 7, 1,
        json.dumps({"worlds": [f"w{n}" for n in range(7)], "agents": ["i"],
                    "rel": {"i": [[f"w{s}", f"w{t}"] for s in range(7) for t in range(7)]},
                    "val": {"q": ["w2", "w4", "w6"]}, "point": "w0"}),
        id="blocking-S5"),
    pytest.param(
        valid, parse("Kw[i]Kw[j]p | Kw[j]p"), FrameClass.K45, 7, 1,
        '{"worlds":["w0","w1","w2","w3","w4","w5","w6"],"agents":["i","j"],"rel":{"i":['
        '["w0","w1"],["w0","w2"],["w1","w1"],["w1","w2"],["w2","w1"],["w2","w2"]],"j":['
        '["w0","w3"],["w0","w4"],["w1","w5"],["w1","w6"],["w3","w3"],["w3","w4"],'
        '["w4","w3"],["w4","w4"],["w5","w5"],["w5","w6"],["w6","w5"],["w6","w6"]]},'
        '"val":{"p":["w4","w6"]},"point":"w0"}',
        id="blocking-K45"),
]


@pytest.mark.parametrize("call, f, fc, prefixes, branches, model", WORK_PINS)
def test_tableau_work_pins(call, f, fc, prefixes, branches, model):
    r = call(f, fc)
    found = r.model if call is sat else r.countermodel
    assert (r.prefixes, r.branches) == (prefixes, branches)
    assert (found and json.loads(found.to_json())) == (model and json.loads(model))
