"""Command-line interface: verdict lines and the exit-code contract."""

import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROOT, pigeonhole, random_formula
from kwl.cli import main
from kwl.formula import Language, parse, render
from kwl.proof import SYSTEMS, format_derivation, gen_prop19
from kwl.semantics import load_model, mc

M1 = str(ROOT / "fixtures" / "m1.json")
F1 = str(ROOT / "fixtures" / "f1.json")
F2 = str(ROOT / "fixtures" / "f2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mc(capsys):
    code, out, _ = run(capsys, "mc", M1, "s", "Kw[i]q")
    assert (code, out) == (1, "false\n")
    code, out, _ = run(capsys, "mc", M1, "s", "top")
    assert (code, out) == (0, "true\n")
    code, _, err = run(capsys, "mc", "missing.json", "s", "p")
    assert code == 2 and "missing.json" in err
    code, _, err = run(capsys, "mc", M1, "nowhere", "p")
    assert code == 2 and "nowhere" in err
    code, _, err = run(capsys, "mc", M1, "s", "p &")
    assert code == 2 and "parse" in err


def test_decide(capsys, tmp_path):
    code, out, _ = run(capsys, "decide", "Kw[i]p <-> Kw[i]~p", "--class", "K")
    assert (code, out) == (0, "valid\n")
    code, out, _ = run(capsys, "decide", "Kw[i]p -> Kw[i](Kw[i]p | q)", "--class", "K4")
    assert (code, out) == (0, "valid\n")
    cm = tmp_path / "cm.json"
    code, out, _ = run(capsys, "decide", "Kw[i](p->q) -> (Kw[i]p -> Kw[i]q)",
                       "--class", "K", "--countermodel", str(cm))
    assert (code, out) == (1, "invalid\n")
    model = load_model(cm)
    assert model.point is not None
    assert not mc(model, model.point, parse("Kw[i](p->q) -> (Kw[i]p -> Kw[i]q)"))
    # and the written file refutes the formula under the mc subcommand too
    code, out, _ = run(capsys, "mc", str(cm), model.point,
                       "Kw[i](p->q) -> (Kw[i]p -> Kw[i]q)")
    assert (code, out) == (1, "false\n")


def test_decide_unknown_class(capsys):
    code, _, err = run(capsys, "decide", "p", "--class", "Z9")
    assert code == 2 and "Z9" in err


def test_decide_budget(capsys):
    code, _, err = run(capsys, "decide", "Kw[i]p -> Kw[i]Kw[i]p",
                       "--class", "K4", "--budget", "5")
    assert code == 3 and "budget" in err


def test_budget_below_one_is_a_usage_error(capsys):
    for budget in ("0", "-1", "many"):
        code, _, err = run(capsys, "decide", "p", "--budget", budget)
        assert code == 2 and "--budget" in err, budget


def test_malformed_model_documents(capsys, tmp_path):
    good = json.loads((ROOT / "fixtures" / "m1.json").read_text())
    for name, bad in (("string_worlds", {**good, "worlds": "st"}),
                      ("three_element_edge", {**good, "rel": {"i": [["s", "t", "s"]]}}),
                      ("list_world_name", {**good, "worlds": [["s"], "t"]})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "frame", str(path))
        assert (code, out) == (2, ""), name
        assert "cannot load model" in err, name


def test_deep_nesting(capsys):
    code, out, err = run(capsys, "mc", M1, "s", "~" * 3000 + "p")
    assert (code, out, err) == (2, "", "kwl: input too deeply nested\n")


def test_internal_error_is_exit_2(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("kwl.cli.valid", broken)
    code, out, err = run(capsys, "decide", "p")
    assert (code, out, err) == (2, "", "kwl: internal error: boom\n")


def test_extraction_fault_carries_one_prefix(capsys, monkeypatch):
    monkeypatch.setattr("kwl.decide.mc", lambda *args: False)
    code, out, err = run(capsys, "decide", "p")
    assert (code, out, err) == (2, "", "kwl: internal error: extracted model fails ~p\n")


def test_sat(capsys, tmp_path):
    out_file = tmp_path / "model.json"
    code, out, _ = run(capsys, "sat", "Kw[i]p & ~p", "--class", "T",
                       "--model", str(out_file))
    assert (code, out) == (0, "satisfiable\n")
    model = load_model(out_file)
    assert mc(model, model.point, parse("Kw[i]p & ~p"))
    code, out, _ = run(capsys, "sat", "Kw[i]p & ~Kw[i]p", "--class", "K")
    assert (code, out) == (1, "unsatisfiable\n")


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "[p]q")
    assert (code, out) == (0, "p -> q\n")
    code, out, _ = run(capsys, "reduce", "[p][q]r")
    assert (code, out) == (0, "p & (p -> q) -> r\n")
    code, _, err = run(capsys, "reduce", "[p]K[i]q")
    assert code == 2


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "t", "Kw[i]p")
    assert (code, out) == (0, "K[i]p | K[i]~p\n")
    code, out, _ = run(capsys, "translate", "tprime", "K[i]p")
    assert (code, out) == (0, "p & Kw[i]p\n")
    code, _, _ = run(capsys, "translate", "t", "K[i]p")
    assert code == 2


def test_check(capsys, tmp_path):
    code, out, _ = run(capsys, "check", str(ROOT / "proofs" / "lemma17.prf"))
    assert (code, out) == (0, "ok\n")
    bad = tmp_path / "bad.prf"
    bad.write_text("system PLKw\n\n1. Kw[i]p ; axiom KwCon\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "step 1" in err
    code, _, err = run(capsys, "check", str(tmp_path / "none.prf"))
    assert code == 2
    garbled = tmp_path / "garbled.prf"
    garbled.write_text("system PLKw\n\n7. p ; taut\n")
    code, _, err = run(capsys, "check", str(garbled))
    assert code == 2


def test_deep_letters_check_via_cli(capsys, tmp_path):
    # the abstraction's letters are hashed and compared: in constant depth,
    # whatever their own depth
    deep = "Kw[i]" + "~" * 600 + "p"
    proof = tmp_path / "deep.prf"
    proof.write_text(f"system PLKw\n\n1. {deep} | ~{deep} ; taut\n")
    assert run(capsys, "check", str(proof)) == (0, "ok\n", "")


def test_gen_prop19_6_checks_via_cli(capsys, tmp_path):
    # the Boolean abstraction of step 61 has 21 letters
    path = tmp_path / "prop19_6.prf"
    path.write_text(format_derivation(gen_prop19(6)))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (0, "ok\n", "")


def test_undecided_step_is_exit_3(capsys, tmp_path):
    # a pigeonhole step is a tautology; past the work cap it is left unchecked
    for holes, want in ((4, 0), (7, 3)):
        path = tmp_path / f"php{holes}.prf"
        path.write_text(f"system PLKw\n\n1. {render(pigeonhole(holes))} ; taut\n")
        code, out, err = run(capsys, "check", str(path))
        assert code == want, holes
    assert out == ""
    assert err.startswith("step 1: tautology check gave up after scanning ")


def test_frame(capsys):
    code, out, _ = run(capsys, "frame", F2)
    assert (code, out) == (
        0, "reflexive serial transitive symmetric euclidean partial-functional\n")
    code, out, _ = run(capsys, "frame", F1)
    assert (code, out) == (0, "partial-functional\n")
    code, out, _ = run(capsys, "frame", M1)
    assert (code, out) == (0, "transitive\n")


def test_fixtures_verify(capsys):
    code, out, _ = run(capsys, "fixtures", "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "ok"
    assert len(lines) == 32


def test_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "decide")[0] == 2


def test_all_corpus_files_check_via_cli(capsys):
    for path in sorted((ROOT / "proofs").glob("*.prf")):
        code, out, _ = run(capsys, "check", str(path))
        assert (code, out) == (0, "ok\n"), path.name


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract

_DEEP = ("~", "(", "Kw[i]", "[p]")


def _random_text(draw, lang):
    rng = random.Random(draw(st.integers(0, 2**32)))
    return render(random_formula(rng, draw(st.integers(0, 4)), props=("p", "q", "r"),
                                 agents=("i", "j"), lang=lang))


@st.composite
def _formula_text(draw):
    kind = draw(st.sampled_from(["random", "deep", "tokens"]))
    if kind == "random":
        return _random_text(draw, draw(st.sampled_from(Language)))
    if kind == "deep":
        # modal chains only past the parser's depth: shallower ones are slow to decide
        opener = draw(st.sampled_from(_DEEP))
        n = draw(st.integers(0, 40) if opener in "~(" else st.integers(2000, 4000))
        return opener * n + "p" + (")" * n if opener == "(" else "")
    return draw(st.text(st.sampled_from("pq~&|-><()[]!Kw topbt,;"), max_size=20))


@st.composite
def _step(draw, k):
    """Step k: mostly well-formed PLKw steps, some of them tautologies."""
    kind = draw(st.sampled_from(["random", "excluded middle", "hostile"]))
    rule = draw(st.sampled_from(["taut", "pc 1", "pc", "pc 1,2", "pc 0", "pc 9", "pc -1",
                                 "pc x", "mp 1 2", "axiom KwCon"]))
    if kind == "random":
        return f"{k}. {_random_text(draw, Language.PLKw)} ; {rule}"
    if kind == "excluded middle":
        f = _random_text(draw, Language.PLKw)
        return f"{k}. ({f}) | ~({f}) ; {'taut' if k == 1 else f'pc {k - 1}'}"
    return f"{k}. {draw(_formula_text())} ; {rule}"


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                  st.text(max_size=4), st.lists(st.text(max_size=2), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.text(max_size=2), max_size=2))


@st.composite
def _model_text(draw):
    doc = json.loads((ROOT / "fixtures" / "m1.json").read_text())
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        if draw(st.booleans()):
            doc[key] = draw(_JUNK)
        else:
            doc.pop(key, None)
    text = json.dumps(doc)
    cut = draw(st.integers(0, len(text)))
    return text[:cut] if draw(st.integers(0, 4)) == 0 else text


@st.composite
def _proof_text(draw):
    system = draw(st.sampled_from(["PLKw"] * 4 + sorted(SYSTEMS) + ["Bogus"]))
    lines = [f"system {system}", ""]
    lines += [draw(_step(k)) for k in range(1, draw(st.integers(0, 4)) + 1)]
    return "\n".join(lines) + "\n"


_BUDGET = st.one_of(st.integers(1, 10**30).map(str), st.integers(-10**30, 0).map(str),
                    st.sampled_from(["", " 5", "1e9", "0x10", "inf", "nan", "10" * 20]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exit_codes_under_fuzzing(data, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    command = data.draw(st.sampled_from(["mc", "frame", "decide", "sat", "check", "reduce"]))
    if command in ("mc", "frame"):
        model = tmp / "model.json"
        model.write_text(data.draw(_model_text()))
        argv = [command, str(model)]
        if command == "mc":
            argv += [data.draw(st.sampled_from(["s", "t", "u"])), data.draw(_formula_text())]
    elif command in ("decide", "sat"):
        argv = [command, data.draw(_formula_text()),
                "--class", data.draw(st.sampled_from(["K", "S5", "KD45", "Z9"])),
                "--budget", data.draw(_BUDGET)]
    elif command == "check":
        proof = tmp / "steps.prf"
        proof.write_text(data.draw(_proof_text()))
        argv = [command, str(proof)]
    else:
        argv = [command, data.draw(_formula_text())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
