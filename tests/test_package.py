"""The package's public surface, and the modules that each entry point loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kwl
from helpers import ROOT

# the public names, in the order of __all__, by the submodule that defines them
OWNERS = {
    "formula": ["And", "Announce", "BOT", "Bot", "Formula", "Iff", "Implies", "K", "Kw",
                "Language", "Not", "Or", "ParseError", "Prop", "TOP", "Top",
                "classify_language", "complexity", "parse", "render", "substitute"],
    "semantics": ["FrameClass", "FrameProperty", "KripkeModel", "ModelError",
                  "frame_properties", "frame_valid", "load_model", "mc", "model_valid",
                  "satisfies_class"],
    "translate": ["el_to_kw", "kw_to_el", "reduce"],
    "decide": ["BudgetExceeded", "Validity", "sat", "valid"],
    "proof": ["AXIOMS", "SYSTEMS", "Derivation", "DerivationError", "Step",
              "check_derivation", "format_derivation", "gen_prop19", "load_derivation",
              "parse_derivation"],
}


def test_public_names():
    assert kwl.__all__ == [name for names in OWNERS.values() for name in names]
    namespace = {}
    exec("from kwl import *", namespace)
    for module, names in OWNERS.items():
        for name in names:
            owner = importlib.import_module(f"kwl.{module}")
            assert namespace[name] is getattr(owner, name), name
    assert set(kwl.__all__) <= set(dir(kwl))


def test_names_load_on_first_use(monkeypatch):
    for name in OWNERS:
        monkeypatch.delattr(kwl, name)
        assert getattr(kwl, name) is sys.modules[f"kwl.{name}"]
    monkeypatch.delitem(vars(kwl), "sat", raising=False)
    assert kwl.sat is sys.modules["kwl.decide"].sat
    assert vars(kwl)["sat"] is kwl.sat  # kept, so the next lookup is a plain one
    with pytest.raises(AttributeError) as info:
        kwl.nope
    assert str(info.value) == "module 'kwl' has no attribute 'nope'"


def _loaded(code: str) -> list[str]:
    """The kwl modules a fresh interpreter has loaded after running code."""
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    {code}\n"
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'kwl')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, cwd=ROOT).stdout.split()


def test_each_entry_loads_only_the_modules_it_runs():
    assert _loaded("import kwl") == ["kwl"]
    assert _loaded("import kwl; kwl.decide.sat") == [
        "kwl", "kwl.decide", "kwl.formula", "kwl.semantics", "kwl.translate"]
    base = ["kwl", "kwl.cli", "kwl.formula", "kwl.semantics"]
    for argv, extra in ((["mc", "fixtures/m1.json", "s", "Kw[i]q"], []),
                        (["frame", "fixtures/m1.json"], []),
                        (["check", "proofs/lemma17.prf"], ["kwl.proof", "kwl.translate"]),
                        (["decide", "Kw[i]p"], ["kwl.decide", "kwl.translate"])):
        run = f"import kwl.cli; assert kwl.cli.main({argv!r}) in (0, 1)"
        assert _loaded(run) == sorted(base + extra), argv


def test_only_semantics_knows_the_model_store():
    # a model's masks, world index and _Space are one format, semantics';
    # another module hands it successor rows and masks through
    # KripkeModel._from_rows.  (formula defines a __new__ of its own, so
    # only KripkeModel.__new__ is barred.)
    store = {"_store", "_space", "_index", "_Space", "KripkeModel.__new__"}
    for path in Path(kwl.__file__).parent.glob("*.py"):
        if path.name == "semantics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr, ast.unparse(node)}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            assert not names & store, (path.name, node.lineno)
