"""Command-line interface: verdict lines and the exit-code contract."""

import json

from helpers import ROOT
from kwl.cli import main
from kwl.formula import parse
from kwl.proof import format_derivation, gen_prop19
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


def test_letter_cap_is_exit_3(capsys, tmp_path):
    # the conclusion is K-valid; step 61 is too wide to tabulate, not wrong
    path = tmp_path / "prop19_6.prf"
    path.write_text(format_derivation(gen_prop19(6)))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err == "step 61: boolean abstraction needs 21 letters (limit 20)\n"


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
