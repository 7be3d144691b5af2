"""Axiom schemas, propositional tautology checking, derivation replay."""

import importlib.util
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwl.proof
from helpers import ROOT, abstraction_letters, pigeonhole, random_formula, reference_taut
from kwl.formula import And, Iff, Implies, Language, Not, Or, Prop, disj, parse, render
from kwl.proof import (
    AXIOMS,
    SYSTEMS,
    Derivation,
    DerivationError,
    Step,
    StepUndecided,
    check_derivation,
    format_derivation,
    gen_prop19,
    instantiate,
    is_bool_taut,
    load_derivation,
    match_axiom,
    parse_derivation,
)

ALL_AXIOMS = {
    "KwCon", "KwDis", "Kw<->", "KwT", "Kw4", "Kw5", "wKw4", "wKw5",
    "!ATOM", "!NEG", "!COM", "!!", "!Kw",
    "I1", "I2", "I3", "I4", "N", "Z", "R", "G4",
}


def test_axiom_registry():
    assert set(AXIOMS) == ALL_AXIOMS
    # G4 belongs to no system
    assert all("G4" not in s.axioms for s in SYSTEMS.values())


def test_system_registry():
    assert set(SYSTEMS) == {
        "PLKw", "PLKwT", "PLKw4", "PLKw5", "PLKw45", "PLKwS4", "PLKwS5",
        "PLKwA", "PLKwAS5", "Ig", "LB",
    }
    core = {"KwCon", "KwDis", "Kw<->"}
    assert SYSTEMS["PLKw"].axioms == core
    assert SYSTEMS["PLKwT"].axioms == core | {"KwT"}
    assert SYSTEMS["PLKw4"].axioms == core | {"Kw4"}
    assert SYSTEMS["PLKw5"].axioms == core | {"Kw5"}
    assert SYSTEMS["PLKw45"].axioms == core | {"Kw4", "Kw5"}
    assert SYSTEMS["PLKwS4"].axioms == core | {"KwT", "wKw4"}
    assert SYSTEMS["PLKwS5"].axioms == core | {"KwT", "wKw5"}
    announce = {"!ATOM", "!NEG", "!COM", "!!", "!Kw"}
    assert SYSTEMS["PLKwA"].axioms == core | announce
    assert SYSTEMS["PLKwAS5"].axioms == core | announce | {"KwT", "wKw5"}
    assert SYSTEMS["Ig"].axioms == {"I1", "I2", "I3", "I4"}
    assert SYSTEMS["LB"].axioms == {"N", "Z", "R"}
    assert SYSTEMS["PLKw"].frame_class.name == "K"
    assert SYSTEMS["PLKwT"].frame_class.name == "T"
    assert SYSTEMS["PLKw45"].frame_class.name == "K45"
    assert SYSTEMS["PLKwAS5"].frame_class.name == "S5"
    assert SYSTEMS["LB"].frame_class.name == "S4"
    assert SYSTEMS["PLKwA"].language == Language.PLKwA
    assert SYSTEMS["PLKw"].language == Language.PLKw
    assert SYSTEMS["Ig"].rules == {"mp", "ri", "sub", "taut", "pc"}
    assert SYSTEMS["LB"].rules == {"mp", "wm", "sub", "taut", "pc"}
    assert SYSTEMS["PLKw"].rules == {"mp", "neckw", "rekw", "sub", "taut", "pc"}


def test_match_axiom_pins():
    b = match_axiom("KwCon", parse("Kw[i](p -> q) & Kw[i](~p -> q) -> Kw[i]q"))
    assert b == {"CHI": Prop("p"), "PHI": Prop("q"), "I": "i"}
    assert match_axiom("KwCon", parse("Kw[i](p -> q) & Kw[i](~r -> q) -> Kw[i]q")) is None
    b = match_axiom("Kw<->", parse("Kw[a](p & q) <-> Kw[a]~(p & q)"))
    assert b == {"PHI": parse("p & q"), "I": "a"}
    assert match_axiom("Kw<->", parse("Kw[a]p <-> Kw[b]~p")) is None
    assert match_axiom("!ATOM", parse("[p & q]r <-> (p & q -> r)")) is not None
    # ATOM only matches an atom
    assert match_axiom("!ATOM", parse("[p](q & r) <-> (p -> q & r)")) is None
    with pytest.raises(KeyError):
        match_axiom("nonesuch", parse("p"))


def test_instantiate_match_round_trip():
    rng = random.Random(61)
    for name, schema in AXIOMS.items():
        for _ in range(25):
            bindings = {
                "PHI": random_formula(rng, 2),
                "PSI": random_formula(rng, 2),
                "CHI": random_formula(rng, 2),
                "CHI1": random_formula(rng, 2),
                "CHI2": random_formula(rng, 2),
                "ATOM": Prop(rng.choice("pqr")),
                "I": rng.choice("ij"),
            }
            inst = instantiate(schema, bindings)
            back = match_axiom(name, inst)
            assert back is not None
            assert instantiate(schema, back) == inst


def test_is_bool_taut_pins():
    assert is_bool_taut(parse("p | ~p"))
    assert is_bool_taut(parse("top"))
    assert not is_bool_taut(parse("p"))
    assert not is_bool_taut(parse("bot"))
    assert is_bool_taut(parse("(p -> q) <-> (~q -> ~p)"))
    assert is_bool_taut(parse("Kw[i]p | ~Kw[i]p"))
    # distinct modal subformulas are distinct letters
    assert not is_bool_taut(parse("Kw[i]p | Kw[i]~p"))
    assert not is_bool_taut(parse("Kw[i]p <-> Kw[i]p & p"))
    assert is_bool_taut(parse("[p]q | ~[p]q"))
    assert is_bool_taut(parse("Kw[i](p & q) -> Kw[i](p & q)"))


def test_is_bool_taut_agrees_with_reference():
    # modal and announcement letters, top/bot and all five connectives
    rng = random.Random(47)
    checked = tautologies = 0
    while checked < 3000:
        f = random_formula(rng, rng.randint(1, 6), props=("p", "q", "r"),
                           agents=("i", "j"), lang=Language.PLKwAK)
        if rng.random() < 0.5:
            f = Implies(f, random_formula(rng, 3, props=("p", "q"), lang=Language.PLKwAK))
        if len(abstraction_letters(f)) > 10:
            continue
        want = reference_taut(f)
        assert is_bool_taut(f) == want, render(f)
        assert is_bool_taut(Not(f)) == reference_taut(Not(f)), render(f)
        checked += 1
        tautologies += want
    assert 100 < tautologies < 2900


def test_is_bool_taut_agrees_on_derivations(monkeypatch):
    # every taut/pc input met while checking the corpus and gen_prop19(1..5)
    seen = []
    monkeypatch.setattr(kwl.proof, "is_bool_taut", lambda f: seen.append(f) or True)
    for path in sorted((ROOT / "proofs").glob("*.prf")):
        check_derivation(load_derivation(path))
    corpus = len(seen)
    for k in range(1, 6):
        check_derivation(gen_prop19(k))
    # gen_prop19(k) has 7k - 4 taut and pc steps
    assert (corpus, len(seen) - corpus) == (232, sum(7 * k - 4 for k in range(1, 6)))
    for f in seen:
        assert is_bool_taut(f) == reference_taut(f), render(f)
        assert is_bool_taut(f)


def test_is_bool_taut_many_letters():
    letters = [Prop(f"v{k}") for k in range(2000)]
    assert is_bool_taut(Or(disj(letters), Not(letters[0])))
    assert not is_bool_taut(disj(letters))


def test_is_bool_taut_work_cap():
    # the pigeonhole tautologies take DPLL exponentially long
    assert is_bool_taut(pigeonhole(4))
    d = Derivation("PLKw", (Step(1, pigeonhole(4), "taut"), Step(2, pigeonhole(7), "taut")))
    with pytest.raises(StepUndecided) as exc:
        check_derivation(d)
    assert isinstance(exc.value, DerivationError)
    assert exc.value.index == 2
    assert str(exc.value).startswith("step 2: tautology check gave up after scanning ")


def test_is_bool_taut_depth():
    # the walk and the evaluation each take at most one frame per level
    f = parse("p | ~p")
    for _ in range(700):
        f = Not(f)
    assert is_bool_taut(f)
    assert not is_bool_taut(Not(f))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 3 ** 7 - 1))
def test_is_bool_taut_agrees_with_truth_tables(code):
    # decode a random 3-valued shape into a boolean formula over p, q, r
    rng = random.Random(code)
    f = random_formula(rng, 3, props=("p", "q", "r"), lang=Language.EL)
    if "K[" in render(f):
        return
    props = sorted({"p", "q", "r"})

    def ev(g, row):
        match g:
            case Prop(name):
                return row[name]
            case Not(sub):
                return not ev(sub, row)
            case And(a, b):
                return ev(a, row) and ev(b, row)
            case Or(a, b):
                return ev(a, row) or ev(b, row)
            case Implies(a, b):
                return not ev(a, row) or ev(b, row)
            case Iff(a, b):
                return ev(a, row) == ev(b, row)
        return g == parse("top")

    brute = all(ev(f, dict(zip(props, bits)))
                for bits in itertools.product([False, True], repeat=3))
    assert is_bool_taut(f) == brute


def test_parse_derivation_pins():
    text = """\
# transfer of knowing-whether along an implication
system PLKw

1. Kw[i](p -> q) & Kw[i](~p -> q) -> Kw[i]q ; axiom KwCon

2. top ; taut
"""
    d = parse_derivation(text)
    assert d.system == "PLKw"
    assert len(d.steps) == 2
    assert d.steps[0] == Step(1, parse("Kw[i](p -> q) & Kw[i](~p -> q) -> Kw[i]q"),
                              "axiom KwCon")
    assert parse_derivation(format_derivation(d)) == d


def test_parse_derivation_errors():
    with pytest.raises(ValueError):
        parse_derivation("1. p ; taut\n")                      # no header
    with pytest.raises(ValueError):
        parse_derivation("system PLKw\n\n2. p ; taut\n")       # numbering gap
    with pytest.raises(ValueError):
        parse_derivation("system PLKw\n\n1. p taut\n")         # missing semicolon
    with pytest.raises(ValueError):
        parse_derivation("system PLKw\n\n1. p & ; taut\n")     # formula syntax


def _check_lines(system, lines):
    steps = [Step(k + 1, parse(f), j) for k, (f, j) in enumerate(lines)]
    return check_derivation(Derivation(system, steps))


def test_rule_taut_and_pc():
    concl = _check_lines("PLKw", [
        ("p -> p | q", "taut"),
        ("Kw[i]p | ~Kw[i]p", "taut"),
    ])
    assert concl == parse("Kw[i]p | ~Kw[i]p")
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [("Kw[i]p | Kw[i]~p", "taut")])
    assert exc.value.index == 1
    concl = _check_lines("PLKw", [
        ("p -> q | p", "taut"),
        ("p | bot -> p", "taut"),
        ("p -> p", "taut"),
        ("p & p -> q | p", "pc 1,3"),
    ])
    assert concl == parse("p & p -> q | p")
    with pytest.raises(DerivationError):
        _check_lines("PLKw", [
            ("p -> q | p", "taut"),
            ("q", "pc 1"),
        ])
    with pytest.raises(DerivationError):
        _check_lines("PLKw", [("p", "pc 1")])   # self/forward reference
    with pytest.raises(DerivationError):
        _check_lines("PLKw", [("p -> p", "pc")])  # pc needs premises


def test_rule_mp():
    concl = _check_lines("PLKw", [
        ("p -> p | q", "taut"),
        ("(p -> p | q) -> (p & r -> p | q)", "taut"),
        ("p & r -> p | q", "mp 2 1"),
    ])
    assert concl == parse("p & r -> p | q")
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [
            ("p -> p | q", "taut"),
            ("top", "taut"),
            ("p | q", "mp 1 2"),
        ])
    assert exc.value.index == 3


def test_rule_neckw_rekw():
    concl = _check_lines("PLKw", [
        ("p -> p", "taut"),
        ("Kw[i](p -> p)", "neckw 1 i"),
    ])
    assert concl == parse("Kw[i](p -> p)")
    with pytest.raises(DerivationError):
        _check_lines("PLKw", [
            ("p", "taut"),
        ])
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [
            ("p -> p | q", "taut"),
            ("Kw[i](q -> p)", "neckw 1 i"),
        ])
    assert exc.value.index == 2
    concl = _check_lines("PLKw", [
        ("(p & q) <-> (q & p)", "taut"),
        ("Kw[j](p & q) <-> Kw[j](q & p)", "rekw 1 j"),
    ])
    assert concl == parse("Kw[j](p & q) <-> Kw[j](q & p)")
    with pytest.raises(DerivationError):
        _check_lines("PLKw", [
            ("p -> q | p", "taut"),
            ("Kw[i]p <-> Kw[i](q | p)", "rekw 1 i"),  # premise not an iff
        ])


def test_rule_sub():
    concl = _check_lines("PLKw", [
        ("(p & q) <-> (q & p)", "taut"),
        ("Kw[i](p & q) <-> Kw[i](q & p)", "sub 1 Kw[i]x x"),
    ])
    assert concl == parse("Kw[i](p & q) <-> Kw[i](q & p)")
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [
            ("(p & q) <-> (q & p)", "taut"),
            ("Kw[i](p & q) <-> Kw[i](p & q)", "sub 1 Kw[i]x x"),
        ])
    assert exc.value.index == 2


def test_rule_ri_requires_system():
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [
            ("p -> p", "taut"),
            ("Kw[i](p -> p) & (~Kw[i]q -> ~Kw[i](q & (p -> p)))", "ri 1 q"),
        ])
    assert "ri" in str(exc.value)
    concl = _check_lines("Ig", [
        ("p -> p", "taut"),
        ("Kw[i](p -> p) & (~Kw[i]q -> ~Kw[i](q & (p -> p)))", "ri 1 q"),
    ])
    assert concl == parse("Kw[i](p -> p) & (~Kw[i]q -> ~Kw[i](q & (p -> p)))")


def test_rule_wm():
    concl = _check_lines("LB", [
        ("Kw[i]p & p -> p | q", "taut"),
        ("Kw[i]p & p -> Kw[i](p | q) & (p | q)", "wm 1"),
    ])
    assert concl == parse("Kw[i]p & p -> Kw[i](p | q) & (p | q)")
    with pytest.raises(DerivationError) as exc:
        _check_lines("LB", [
            ("Kw[i]p & q -> p | q", "taut"),
            ("Kw[i]p & q -> Kw[i](p | q) & (p | q)", "wm 1"),
        ])
    assert exc.value.index == 2


def test_axiom_availability_and_alias():
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [("Kw[i]top <-> top", "axiom N")])
    assert "not part of PLKw" in str(exc.value)
    concl = _check_lines("PLKwA", [("[p](q & r) <-> [p]q & [p]r", "axiom !CON")])
    assert concl == parse("[p](q & r) <-> [p]q & [p]r")
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [("p | ~p", "axiom Excluded")])
    assert exc.value.index == 1


def test_language_gating():
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [("[p]q | ~[p]q", "taut")])
    assert exc.value.index == 1
    with pytest.raises(DerivationError):
        _check_lines("LB", [("K[i]p | ~K[i]p", "taut")])
    _check_lines("PLKwA", [("[p]q | ~[p]q", "taut")])


def test_nearest_miss_hint():
    with pytest.raises(DerivationError) as exc:
        _check_lines("PLKw", [
            ("Kw[i](p -> q) & Kw[i](~p -> q) -> Kw[i]p", "axiom KwCon"),
        ])
    assert "not an instance of KwCon" in str(exc.value)
    assert "schema" in str(exc.value)


def test_unknown_system():
    with pytest.raises(DerivationError) as exc:
        check_derivation(Derivation("Bogus", [Step(1, parse("top"), "taut")]))
    assert exc.value.index == 0


def test_corpus_certifies():
    files = sorted((ROOT / "proofs").glob("*.prf"))
    assert len(files) == 29
    for path in files:
        d = load_derivation(path)
        concl = check_derivation(d)
        assert concl == d.steps[-1].formula


def test_corpus_matches_its_generator():
    spec = importlib.util.spec_from_file_location("gen_corpus", ROOT / "scripts" / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    files = {path.stem: path for path in (ROOT / "proofs").glob("*.prf")}
    assert set(gen_corpus.CORPUS) == set(files)
    for name, build in gen_corpus.CORPUS.items():
        assert format_derivation(build()) == files[name].read_text(), name


def test_gen_prop19():
    for k in range(1, 13):
        d = gen_prop19(k)
        assert d.system == "PLKw"
        assert len(d.steps) == 11 * k - 5
        assert check_derivation(d) == d.steps[-1].formula
    concl2 = check_derivation(gen_prop19(2))
    assert concl2 == parse(
        "Kw[i]x1 & Kw[i]x2 & Kw[i](~x1 & ~x2 -> z) & ~Kw[i]z"
        " & Kw[i](x1 -> y1) & Kw[i](x2 -> y2) -> Kw[i]y1 | Kw[i]y2")
    with pytest.raises(ValueError):
        gen_prop19(0)


def test_mutated_corpus_step_is_rejected():
    path = ROOT / "proofs" / "lemma17.prf"
    text = path.read_text()
    bad = text.replace("4. Kw[i](p -> r) & Kw[i](~p -> r) -> Kw[i]r ; axiom KwCon",
                       "4. Kw[i](p -> r) & Kw[i](~p -> r) -> Kw[i]p ; axiom KwCon")
    assert bad != text
    with pytest.raises(DerivationError) as exc:
        check_derivation(parse_derivation(bad))
    assert exc.value.index == 4
