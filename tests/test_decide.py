"""Tableau satisfiability and validity against independent oracles."""

import os
import random
import subprocess
import sys

import pytest

from helpers import ROOT, enumerate_class_models, random_formula, random_model
from kwl.decide import BudgetExceeded, DecisionResult, Validity, sat, valid
from kwl.formula import Language, Not, enumerate_formulas, parse, render
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


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="S5 tableau with two agents: the extracted model fails the re-check")
def test_s5_two_agent_kw_chain():
    # valid over S5: Kw[j]Kw[j]p is, and necessitation gives the rest
    assert valid(parse("Kw[j]Kw[i]Kw[j]Kw[j]p"), FrameClass.S5).valid
