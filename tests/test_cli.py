"""Command-line interface: verdict lines and the exit-code contract."""

import argparse
import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ROOT, balanced_disjunctions, pigeonhole, random_formula
from kwl.cli import main
from kwl.formula import Iff, Language, Prop, parse, render
from kwl.proof import SYSTEMS, format_derivation, gen_prop19
from kwl.semantics import load_model, mc
from kwl.translate import el_to_kw

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
    for name, bad, text in (
            ("string_worlds", {**good, "worlds": "st"},
             "malformed model document: worlds must be a list of strings"),
            ("three_element_edge", {**good, "rel": {"i": [["s", "t", "s"]]}},
             "malformed model document: rel must map each agent to a list of "
             "[source, target] world pairs"),
            ("list_world_name", {**good, "worlds": [["s"], "t"]},
             "malformed model document: worlds must be a list of strings"),
            ("unknown_world_and_bad_val", {**good, "rel": {"i": [["s", "u"]]}, "val": {"q": "t"}},
             "malformed model document: val must map each proposition to a list of worlds"),
            ("unknown_world_and_unknown_val", {**good, "rel": {"i": [["u", "s"]]},
                                               "val": {"q": ["u"]}},
             "edge ('u', 's') mentions an unknown world"),
            ("undeclared_agent_and_bad_point", {**good, "rel": {"j": []}, "point": ["s"]},
             "malformed model document: point must be a world"),
            ("undeclared_agent_and_unknown_point", {**good, "rel": {"j": []}, "point": "u"},
             "relation for undeclared agent 'j'")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "frame", str(path))
        assert (code, out, err) == (2, "", f"kwl: cannot load model {path}: {text}\n"), name


def test_deep_nesting(capsys):
    # parse reads any depth, and the evaluator takes a run of ~ in a loop
    assert run(capsys, "mc", M1, "s", "p") == (1, "false\n", "")
    assert run(capsys, "mc", M1, "s", "~" * 3000 + "p") == (1, "false\n", "")
    # a Kw[i] chain costs semantics._ext, and the normal form pass, a stack
    # frame a level
    for command in (["mc", M1, "s"], ["decide"]):
        code, out, err = run(capsys, *command, "Kw[i]" * 3000 + "p")
        assert (code, out, err) == (2, "", "kwl: input too deeply nested\n"), command
    assert run(capsys, "decide", "(" * 5000 + "p" + ")" * 5000) == (1, "invalid\n", "")
    # the search takes none per split
    assert run(capsys, "sat", balanced_disjunctions(1200)) == (0, "satisfiable\n", "")


def _broken(*args, **kwargs):
    raise RuntimeError("boom")


def test_internal_error_is_exit_2(capsys, monkeypatch):
    run(capsys, "decide", "p")  # the parser and kwl.decide exist before the patch
    monkeypatch.setattr("kwl.decide.valid", _broken)
    code, out, err = run(capsys, "decide", "p")
    assert (code, out, err) == (2, "", "kwl: internal error: boom\n")


def test_internal_error_in_sat_is_exit_2(capsys, monkeypatch):
    run(capsys, "sat", "p")
    monkeypatch.setattr("kwl.decide.sat", _broken)
    code, out, err = run(capsys, "sat", "p")
    assert (code, out, err) == (2, "", "kwl: internal error: boom\n")


def test_extraction_fault_carries_one_prefix(capsys, monkeypatch):
    monkeypatch.setattr("kwl.decide.mc", lambda *args: False)
    code, out, err = run(capsys, "decide", "p")
    assert (code, out, err) == (2, "", "kwl: internal error: extracted model fails ~p\n")


def test_extracted_model_outside_the_class_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr("kwl.decide.satisfies_class", lambda *args: False)
    code, out, err = run(capsys, "decide", "p")
    assert (code, out, err) == (
        2, "", "kwl: internal error: extracted model leaves the frame class\n")


def test_unwritable_model_path_is_an_input_error(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.json"
    for argv, path, what in ((("sat", "p", "--model", str(missing)), missing, "model"),
                             (("decide", "Kw[i]p", "--countermodel", str(tmp_path)), tmp_path,
                              "countermodel")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"kwl: cannot write {what} {path}: [Errno "), argv
        assert err.count("\n") == 1, argv


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
    code, out, _ = run(capsys, "reduce", "[p]K[i]q")
    assert (code, out) == (0, "p -> K[i](p -> q)\n")


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "t", "Kw[i]p")
    assert (code, out) == (0, "K[i]p | K[i]~p\n")
    code, out, _ = run(capsys, "translate", "tprime", "K[i]p")
    assert (code, out) == (0, "p & Kw[i]p\n")
    code, _, _ = run(capsys, "translate", "t", "K[i]p")
    assert code == 2


def test_rewrites_take_what_parse_accepts(capsys):
    deep = "~" * 900 + "Kw[i]p"
    assert run(capsys, "reduce", deep) == (0, deep + "\n", "")
    assert run(capsys, "translate", "t", deep) == (0, "~" * 900 + "(K[i]p | K[i]~p)\n", "")
    # parse reads a run of & in a loop, and so do the rewrites and render
    long = " & ".join(["p"] * 1000)
    assert run(capsys, "reduce", long) == (0, long + "\n", "")
    assert run(capsys, "translate", "t", long) == (0, long + "\n", "")
    code, out, err = run(capsys, "translate", "tprime", deep)
    assert (code, out, err) == (2, "", "kwl: el_to_kw is defined on the K-only language, "
                                       "got: Kw[i]p\n")
    # el_to_kw adds a level for each K, and the output still prints, on a
    # run of ~ deeper than the interpreter's stack
    text = "~" * 5000 + "K[i]" * 16 + "p"
    assert run(capsys, "reduce", text) == (0, text + "\n", "")
    assert run(capsys, "translate", "tprime", text) == \
        (0, render(el_to_kw(parse(text))) + "\n", "")


def test_rewrites_too_large_to_print_exit_3(capsys):
    # as trees: 10,485,756, about 2^700, and 37,109,374 nodes
    nested = "".join(f"[Kw[i]p{k}]" for k in reversed(range(10))) + "Kw[i]q"
    for argv in (("translate", "t", "Kw[i]" * 21 + "p"), ("translate", "t", "Kw[i]" * 700 + "p"),
                 ("reduce", nested)):
        start = time.perf_counter()
        result = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv[:2]
        assert result == (3, "", "kwl: the output has more than 8388608 nodes\n"), argv[:2]


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


def test_deep_steps_check_via_cli(capsys, tmp_path):
    # parse reads a step of any depth, and the tautology check takes a
    # maximal Kw subformula as one letter
    deep = "Kw[i]" * 5000 + "p"
    proof = tmp_path / "deep.prf"
    proof.write_text(f"system PLKw\n\n1. {deep} | ~{deep} ; taut\n2. {deep} | p ; taut\n")
    assert run(capsys, "check", str(proof)) == (1, "", "step 2: not a boolean tautology\n")


def test_gen_prop19_6_checks_via_cli(capsys, tmp_path):
    # the Boolean abstraction of step 61 has 21 letters
    path = tmp_path / "prop19_6.prf"
    path.write_text(format_derivation(gen_prop19(6)))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (0, "ok\n", "")


def test_parity_checks_via_cli(capsys, tmp_path):
    # x0 <-> ... <-> x(n-1) bracketed from the left and from the right are
    # equivalent; up to 12 letters the truth table decides both directions
    for n in range(2, 13):
        xs = [Prop(f"x{k}") for k in range(n)]
        left = functools.reduce(Iff, xs)
        right = functools.reduce(lambda a, b: Iff(b, a), reversed(xs))
        path = tmp_path / f"parity{n}.prf"
        path.write_text(f"system PLKw\n\n1. {render(Iff(left, right))} ; taut\n"
                        f"2. {render(Iff(right, left))} ; taut\n")
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (0, "ok\n", ""), n


def test_undecided_step_is_exit_3(capsys, tmp_path):
    # a pigeonhole step is a tautology; past the work cap it is left unchecked,
    # as a taut step and as a pc step that cites a line
    for steps, index in (("1. {} ; taut\n", 1), ("1. p | ~p ; taut\n2. {} ; pc 1\n", 2)):
        for holes, want in ((4, 0), (7, 3)):
            path = tmp_path / f"php{holes}.prf"
            path.write_text("system PLKw\n\n" + steps.format(render(pigeonhole(holes))))
            code, out, err = run(capsys, "check", str(path))
            assert code == want, (holes, steps)
        assert out == ""
        assert err.startswith(f"step {index}: tautology check gave up after scanning ")


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


COMMANDS = ("mc", "decide", "sat", "reduce", "translate", "check", "frame", "fixtures")


def test_non_utf8_input_files(capsys, tmp_path):
    decode = "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"
    path = tmp_path / "latin1"
    path.write_bytes(b"{\xff}")
    for argv, what in ((("frame", str(path)), "model"),
                       (("mc", str(path), "s", "p"), "model"),
                       (("check", str(path)), "derivation")):
        assert run(capsys, *argv) == (2, "", f"kwl: cannot load {what} {path}: {decode}\n"), argv


def test_repeated_calls_print_the_same(capsys):
    """The parser is built once per process; every call still parses afresh."""
    calls = [("--help",), (), ("bogus",), ("--budget", "5")]
    calls += [(command, "--help") for command in COMMANDS]
    calls += [(command,) for command in COMMANDS]
    calls += [("mc", M1, "s"), ("decide", "p", "--budget", "0"), ("sat", "p", "--class"),
              ("decide", "p", "--model", "x"), ("translate", "x", "p"), ("fixtures", "run"),
              ("reduce", "p", "q")]
    for argv in calls:
        first = run(capsys, *argv)
        assert first[0] in (0, 2) and first[1] + first[2], argv
        assert run(capsys, *argv) == first, argv


def test_options_of_one_call_do_not_reach_the_next(capsys, tmp_path):
    f = "Kw[i]p -> Kw[i]Kw[i]p"
    assert run(capsys, "decide", f, "--class", "K4", "--budget", "5")[0] == 3
    assert run(capsys, "decide", f, "--class", "K4") == (0, "valid\n", "")
    for command, option, formula, code in (("sat", "--model", "p", 0),
                                           ("decide", "--countermodel", "Kw[i]p", 1)):
        path = tmp_path / "written.json"
        assert run(capsys, command, formula, option, str(path))[0] == code
        path.unlink()
        assert run(capsys, command, formula)[0] == code
        assert list(tmp_path.iterdir()) == [], command


def test_one_parser_over_many_calls(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for n in range(50):
        run(capsys, *(("reduce", "[p]q"), ("mc", M1, "s", "q"), ("bogus",))[n % 3])
    assert built.count("kwl") <= 1


def test_import_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = "
             "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
             "import kwl.cli, sys\n"
             "print(len(built), 'kwl.fixtures' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0 False\n"


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
        # modal chains only past the depth of the recursive walks: shallower ones are
        # slow to decide
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
    command = data.draw(st.sampled_from(["mc", "frame", "decide", "sat", "check", "reduce",
                                         "translate"]))
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
    elif command == "translate":
        argv = [command, data.draw(st.sampled_from(["t", "tprime"])), data.draw(_formula_text())]
    else:
        argv = [command, data.draw(_formula_text())]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    assert "internal error" not in err.getvalue(), (argv, err.getvalue())
