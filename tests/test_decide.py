"""Tableau satisfiability and validity against independent oracles."""

import json
import os
import random
import subprocess
import sys

import pytest

from helpers import ROOT, enumerate_class_models, random_formula, random_model
from kwl import formula
from kwl.decide import BudgetExceeded, DecisionResult, Validity, _Dia, _Tableau, sat, valid
from kwl.formula import (
    Announce,
    Iff,
    Implies,
    K,
    Kw,
    Language,
    Not,
    Prop,
    enumerate_formulas,
    parse,
    render,
    subformulas,
)
from kwl.proof import gen_prop19
from kwl.semantics import FrameClass, frame_properties, mc, model_valid, satisfies_class

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
    ("[p]q <-> (p -> q)", FrameClass.K, True),
    ("p -> [q]p", FrameClass.K, True),
    ("[p]Kw[i]q <-> (p -> Kw[i][p]q | Kw[i][p]~q)", FrameClass.K, True),
    ("~Kw[i]q -> [q]~Kw[i]q", FrameClass.K, False),
    ("[p][q]r <-> [p & [p]q]r", FrameClass.K, True),
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


@pytest.fixture
def nodes_built(monkeypatch):
    """A list whose length is the number of formula nodes built since."""
    built = []

    def counting(cls):
        built.append(None)
        return object.__new__(cls)

    monkeypatch.setattr(formula, "_new", counting)
    return built


def test_budget_bounds_preprocessing(nodes_built):
    # as trees, the reduction of the six announcements has 59,374 nodes and
    # the NNF of Kw[i]^18 p 1,179,645; each tick of the budget builds a few nodes
    for f in (parse(_SIX_ANNOUNCEMENTS), _kw_chain(18)):
        for budget in (1, 10, 100):
            nodes_built.clear()
            with pytest.raises(BudgetExceeded):
                sat(f, FrameClass.K, budget=budget)
            assert len(nodes_built) <= 2 * budget + 20, (render(f), budget)


def test_preprocessing_shares_copied_subformulas(nodes_built):
    # as a tree, the NNF of Kw[i]^40 p has about 5 * 10^12 nodes; shared, a few per Kw
    r = valid(_kw_chain(40), FrameClass.K, budget=2000)
    assert (r.valid, r.prefixes, r.branches) == (False, 81, 1)
    assert len(nodes_built) < 400
    nodes_built.clear()
    assert sat(parse(_SIX_ANNOUNCEMENTS), FrameClass.K, budget=1000).satisfiable
    assert len(nodes_built) < 400


def test_announcements_with_k_rejected():
    with pytest.raises(ValueError):
        sat(parse("[p]K[i]q"), FrameClass.K)
    with pytest.raises(ValueError):
        valid(parse("K[i]p & [q]r"), FrameClass.K)


def test_announcement_formulas_reduce_then_decide():
    v = valid(parse("[p](q & r) <-> [p]q & [p]r"), FrameClass.K)
    assert v.valid
    r = sat(parse("[p]~Kw[i]q & p & Kw[i]q"), FrameClass.K)
    if r.satisfiable:
        assert mc(r.model, r.model.point, parse("[p]~Kw[i]q & p & Kw[i]q"))


def test_agreement_with_bounded_enumeration():
    """Full two-way agreement with the brute-force oracle on small inputs."""
    forms = list(enumerate_formulas(["p"], ["i"], Language.PLKw, 4))
    for fc in (FrameClass.K, FrameClass.T, FrameClass.K4, FrameClass.S5):
        models = enumerate_class_models(3, fc)
        for f in forms:
            brute = all(model_valid(m, f) for m in models)
            v = valid(f, fc)
            assert v.valid == brute, (render(f), fc)


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


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="S5 tableau with two agents: the extracted model fails the re-check")
def test_s5_two_agent_kw_chain():
    # valid over S5: Kw[j]Kw[j]p is, and necessitation gives the rest
    assert valid(parse("Kw[j]Kw[i]Kw[j]Kw[j]p"), FrameClass.S5).valid


@pytest.fixture(scope="module")
def nnf_inputs():
    rng = random.Random(61)
    forms = list(enumerate_formulas(["p"], ["i", "j"], Language.PLKwK, 5))
    # the enumerator builds only top, p, ~, & and the modalities
    forms += [random_formula(rng, 4, agents=("i", "j"), lang=Language.PLKwK)
              for _ in range(400)]
    return forms


def _nnf(f, neg, pf):
    """The negation normal form that one call of sat would build."""
    return _Tableau(frozenset(), [], 10**6, pf).nnf(f, neg)


def _undia(f):
    """_Dia(a, g) read as ~K[a]~g, so that mc can evaluate the output of _nnf."""
    if isinstance(f, _Dia):
        return Not(K(f.agent, Not(_undia(f.sub))))
    return f.map(_undia)


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
_TWO_AGENTS = parse("~K[j](r & ~p) & K[i](~p | r) & ~K[j](~r & ~s) & ~K[i](~p & r)"
                    " & ~K[j](q & ~q)")

# (call, formula, class, prefixes, branches, model JSON or None); the model is
# sat's model or valid's countermodel.  The figures pin the tableau's search
# order: the order in which rules fire and bodies reach labels.
WORK_PINS = [
    pytest.param(valid, _PROP19_3, FrameClass.K, 312, 219, None, id="prop19-3-K"),
    pytest.param(valid, _PROP19_3, FrameClass.T, 408, 276, None, id="prop19-3-T"),
    pytest.param(
        valid, _kw_chain(10), FrameClass.K, 21, 1,
        '{"worlds":["w0","w1","w2","w3","w4","w5","w6","w7","w8","w9","w10","w11","w12",'
        '"w13","w14","w15","w16","w17","w18","w19","w20"],"agents":["i"],"rel":{"i":['
        '["w0","w1"],["w0","w2"],["w1","w3"],["w1","w4"],["w3","w5"],["w3","w6"],'
        '["w5","w7"],["w5","w8"],["w7","w9"],["w7","w10"],["w9","w11"],["w9","w12"],'
        '["w11","w13"],["w11","w14"],["w13","w15"],["w13","w16"],["w15","w17"],'
        '["w15","w18"],["w17","w19"],["w17","w20"]]},"val":{"p":["w20"]},"point":"w0"}',
        id="kw-chain-10-K"),
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
    # blocking: the open branches have 7 worlds, the models 3 and 5
    pytest.param(
        valid, parse("~K[i]~Kw[i]q"), FrameClass.S5, 7, 1,
        '{"worlds":["w0","w1","w2"],"agents":["i"],"rel":{"i":[["w0","w0"],["w0","w1"],'
        '["w0","w2"],["w1","w0"],["w1","w1"],["w1","w2"],["w2","w0"],["w2","w1"],'
        '["w2","w2"]]},"val":{"q":["w2"]},"point":"w0"}',
        id="blocking-S5"),
    pytest.param(
        valid, parse("Kw[i]Kw[j]p | Kw[j]p"), FrameClass.K45, 7, 1,
        '{"worlds":["w0","w1","w2","w3","w4"],"agents":["i","j"],"rel":{"i":[["w0","w1"],'
        '["w0","w2"],["w1","w1"],["w1","w2"],["w2","w1"],["w2","w2"]],"j":[["w0","w3"],'
        '["w0","w4"],["w1","w3"],["w1","w4"],["w3","w3"],["w3","w4"],["w4","w3"],'
        '["w4","w4"]]},"val":{"p":["w4"]},"point":"w0"}',
        id="blocking-K45"),
]


@pytest.mark.parametrize("call, f, fc, prefixes, branches, model", WORK_PINS)
def test_tableau_work_pins(call, f, fc, prefixes, branches, model):
    r = call(f, fc)
    found = r.model if call is sat else r.countermodel
    assert (r.prefixes, r.branches) == (prefixes, branches)
    assert (found and json.loads(found.to_json())) == (model and json.loads(model))
