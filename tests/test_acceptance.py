"""Acceptance suite: ten criteria, one pass/fail line each.

Each test prints a single `criterion N: PASS (...)` line on success; a failed
assertion is the corresponding FAIL line.  Time bounds are the pinned
tolerances; unbounded criteria assert correctness only.
"""

import random
import time

import pytest

from helpers import ROOT, enumerate_class_models, enumerate_formulas, random_formula, random_model
from kwl.decide import valid
from kwl.fixtures import G4_INSTANCE, announce, f1, f2, g4, m1, m27, n28
from kwl.formula import (
    Announce,
    Implies,
    Kw,
    Language,
    Not,
    Prop,
    complexity,
    parse,
    render,
)
from kwl.proof import (
    AXIOMS,
    SYSTEMS,
    Derivation,
    DerivationError,
    Step,
    check_derivation,
    gen_prop19,
    instantiate,
    load_derivation,
)
from kwl.semantics import (
    FrameClass,
    FrameProperty,
    KripkeModel,
    frame_properties,
    frame_valid,
    mc,
    model_valid,
    satisfies_class,
)
from kwl.translate import el_to_kw, kw_to_el, reduce


def test_criterion_01_m1_reproduction():
    model = m1()
    checks = [
        (parse("Kw[i](p -> q)"), True),
        (parse("Kw[i]p"), True),
        (parse("Kw[i]q"), False),
        (parse("Kw[i](p -> q) -> (Kw[i]p -> Kw[i]q)"), False),
    ]
    start = time.perf_counter()
    results = [mc(model, "s", f) for f, _ in checks]
    elapsed = time.perf_counter() - start
    assert results == [expected for _, expected in checks]
    assert elapsed < 0.001
    print(f"criterion 1: PASS ({elapsed * 1000:.3f} ms)")


# axiom name -> frame class whose models must validate it
_SOUNDNESS = {
    "KwCon": FrameClass.K, "KwDis": FrameClass.K, "Kw<->": FrameClass.K,
    "KwT": FrameClass.T, "Kw4": FrameClass.K4, "Kw5": FrameClass.K5,
    "wKw4": FrameClass.K4, "wKw5": FrameClass.K5,
    "!ATOM": FrameClass.K, "!NEG": FrameClass.K, "!COM": FrameClass.K,
    "!!": FrameClass.K, "!Kw": FrameClass.K,
}


def test_criterion_02_axiom_soundness():
    rng = random.Random(2024)
    pools = {fc: [random_model(rng, fc, max_worlds=3) for _ in range(100)]
             for fc in set(_SOUNDNESS.values())}
    start = time.perf_counter()
    failures = 0
    for name, fc in _SOUNDNESS.items():
        schema = AXIOMS[name]
        lang = Language.PLKwA if name.startswith("!") else Language.PLKw
        models = pools[fc]
        for j in range(1000):
            bindings = {
                "PHI": random_formula(rng, 2, lang=lang),
                "PSI": random_formula(rng, 2, lang=lang),
                "CHI": random_formula(rng, 2, lang=lang),
                "CHI1": random_formula(rng, 2, lang=lang),
                "CHI2": random_formula(rng, 2, lang=lang),
                "ATOM": Prop(rng.choice("pq")),
                "I": "i",
            }
            instance = instantiate(schema, bindings)
            if not model_valid(models[j % 100], instance):
                failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 30
    print(f"criterion 2: PASS (13 axioms x 1000 instances, {elapsed:.1f} s)")


def test_criterion_03_undefinability():
    start = time.perf_counter()
    frame1, frame2 = f1(), f2()
    disagreements = 0
    n = 0
    for f in enumerate_formulas(["p"], ["i"], Language.PLKw, 6):
        n += 1
        if frame_valid(frame1, f) != frame_valid(frame2, f):
            disagreements += 1
    assert n == 746
    assert disagreements == 0
    assert frame_properties(frame1) == {FrameProperty.PARTIAL_FUNCTIONAL}
    assert frame_properties(frame2) == set(FrameProperty)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"criterion 3: PASS ({n} formulas agree, {elapsed:.1f} s)")


def test_criterion_04_incompleteness_fixtures():
    start = time.perf_counter()
    model27, model28 = m27(), n28()
    n = 0
    for f in enumerate_formulas(["p", "q"], ["i"], Language.PLKw, 6):
        kwf = Kw("i", f)
        assert model_valid(model27, Implies(kwf, Kw("i", kwf))), render(f)
        assert model_valid(model28, Implies(Not(kwf), Kw("i", Not(kwf)))), render(f)
        n += 1
    assert n == 1782
    assert not mc(model27, "s", parse("Kw[i]p -> Kw[i](Kw[i]p | q)"))
    assert not mc(model28, "s", parse("~Kw[i]p -> Kw[i](~Kw[i]p | q)"))
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"criterion 4: PASS ({n} wKw4 and wKw5 instances each, {elapsed:.1f} s)")


def test_criterion_05_g4_refutation():
    model = g4()
    instance = parse(G4_INSTANCE)
    assert satisfies_class(model, FrameClass.K4)
    assert not mc(model, "s", instance)
    v = valid(instance, FrameClass.K4)
    assert not v.valid
    cm = v.countermodel
    assert not mc(cm, cm.point, instance)
    assert satisfies_class(cm, FrameClass.K4)
    print(f"criterion 5: PASS (countermodel on {len(cm.worlds)} worlds)")


def test_criterion_06_reduction():
    rng = random.Random(600)
    models = [random_model(rng, FrameClass.K, max_worlds=3) for _ in range(50)]
    start = time.perf_counter()
    n_with_announcements = 0
    for _ in range(500):
        f = random_formula(rng, 4, lang=Language.PLKwA)
        g = reduce(f)   # every rewrite step asserts its own complexity decrease
        assert _announcement_free(g)
        if not _announcement_free(f):
            n_with_announcements += 1
            assert complexity(g) < complexity(f)
        for m in models:
            for w in m.worlds:
                assert mc(m, w, f) == mc(m, w, g), (render(f), w)
    elapsed = time.perf_counter() - start
    assert n_with_announcements > 200
    assert elapsed < 60
    print(f"criterion 6: PASS (500 formulas x 50 models, {elapsed:.1f} s)")


def _announcement_free(f):
    if isinstance(f, Announce):
        return False
    return all(_announcement_free(getattr(f, name))
               for name in ("sub", "left", "right", "announced", "body")
               if hasattr(f, name))


def test_criterion_07_translations():
    rng = random.Random(700)
    for _ in range(500):
        m = random_model(rng, FrameClass.K)
        f = random_formula(rng, 4, lang=Language.PLKw)
        w = rng.choice(m.worlds)
        assert mc(m, w, f) == mc(m, w, kw_to_el(f))
    for _ in range(500):
        m = random_model(rng, FrameClass.T)
        f = random_formula(rng, 4, lang=Language.EL)
        w = rng.choice(m.worlds)
        assert mc(m, w, f) == mc(m, w, el_to_kw(f))
    # recorded failure without reflexivity
    witness = KripkeModel(["s", "t"], ["i"], {"i": [("s", "t")]}, {"p": ["t"]})
    assert mc(witness, "s", parse("K[i]p"))
    assert not mc(witness, "s", el_to_kw(parse("K[i]p")))
    print("criterion 7: PASS (500 + 500 triples and the witness)")


# (file, 1-based step, replacement Step fields) for criterion 8; each mutation
# breaks the named step itself
_MUTATIONS = [
    ("lemma17.prf", 4, parse("Kw[i](p -> r) & Kw[i](~p -> r) -> Kw[i]p"), None),
    ("lemma18.prf", 10, parse("bot"), None),
    ("prop26_1.prf", 5, parse("Kw[i]q -> Kw[i]Kw[i]p"), None),
    ("prop54.prf", 2, None, "sub 1 Kw[i]x & r x"),
    ("prop62.prf", 3, parse("Kw[i](p -> p) <-> Kw[i]p"), None),
    ("lemma57.prf", 2, parse("Kw[i]p & p -> Kw[i](p | q) & (q | p)"), None),
    ("prop53.prf", 2, parse("Kw[i](p -> q)"), None),
    ("ig_demo.prf", 2, None, "ri 1 r"),
    ("plkwa_demo.prf", 3, parse("[p](q & r) <-> [p]q & [q]r"), None),
    ("prop50.prf", 35, parse("Kw[i]p & Kw[i]q -> Kw[i](p | q)"), None),
]


def test_criterion_08_proof_corpus():
    files = sorted((ROOT / "proofs").glob("*.prf"))
    assert len(files) == 29
    for path in files:
        d = load_derivation(path)
        conclusion = check_derivation(d)
        system = SYSTEMS[d.system]
        v = valid(conclusion, system.frame_class)
        assert v.valid, path.name
    for k in range(1, 5):
        check_derivation(gen_prop19(k))
    rejected = 0
    for name, index, formula, justification in _MUTATIONS:
        d = load_derivation(ROOT / "proofs" / name)
        old = d.steps[index - 1]
        new = Step(index,
                   formula if formula is not None else old.formula,
                   justification if justification is not None else old.justification)
        assert new != old
        mutated = Derivation(d.system, d.steps[:index - 1] + (new,) + d.steps[index:])
        with pytest.raises(DerivationError) as exc:
            check_derivation(mutated)
        assert exc.value.index == index, name
        rejected += 1
    assert rejected == 10
    print("criterion 8: PASS (29 files certify, conclusions valid, 10 mutations rejected)")


def test_criterion_09_oracle_agreement():
    start = time.perf_counter()
    forms = list(enumerate_formulas(["p"], ["i"], Language.PLKw, 5))
    assert len(forms) == 202
    checked = 0
    for fc in FrameClass:
        models = enumerate_class_models(3, fc)
        for f in forms:
            has_counter = not all(model_valid(m, f) for m in models)
            v = valid(f, fc)
            if has_counter:
                assert not v.valid, (render(f), fc)
            if not v.valid:
                cm = v.countermodel
                assert not mc(cm, cm.point, f)
                assert fc.requirements <= frame_properties(cm)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"criterion 9: PASS ({checked} formula/class pairs, {elapsed:.1f} s)")


def test_criterion_10_announcement_non_substitution():
    v = valid(parse("p -> [q]p"), FrameClass.K)
    assert v.valid
    model = announce()
    assert not mc(model, "s", parse("~Kw[i]q -> [q]~Kw[i]q"))
    assert mc(model, "s", parse("~Kw[i]q"))
    assert not mc(model, "s", parse("[q]~Kw[i]q"))
    print("criterion 10: PASS")
