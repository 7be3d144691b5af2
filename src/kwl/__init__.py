"""Reasoning tools for epistemic logics of knowing whether.

Submodules:
  formula    AST, parser, printer, language classification
  semantics  Kripke models, model checking, frame properties
  translate  Kw/K translations and announcement reduction
  decide     satisfiability and validity over frame classes
  proof      Hilbert-style derivation checking
  fixtures   small models used throughout the test suite and docs

``import kwl`` loads none of them: each public name below, and each of the
first five submodules, is imported from its module on first use.
"""

import importlib

# submodule -> the public names it exports, in the order of __all__
_EXPORTS = {
    "formula": ("And", "Announce", "BOT", "Bot", "Formula", "Iff", "Implies", "K", "Kw",
                "Language", "Not", "Or", "ParseError", "Prop", "TOP", "Top",
                "classify_language", "complexity", "parse", "render", "substitute"),
    "semantics": ("FrameClass", "FrameProperty", "KripkeModel", "ModelError",
                  "frame_properties", "frame_valid", "load_model", "mc", "model_valid",
                  "satisfies_class"),
    "translate": ("el_to_kw", "kw_to_el", "reduce"),
    "decide": ("BudgetExceeded", "Validity", "sat", "valid"),
    "proof": ("AXIOMS", "SYSTEMS", "Derivation", "DerivationError", "Step",
              "check_derivation", "format_derivation", "gen_prop19", "load_derivation",
              "parse_derivation"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that owns a public name, and keep the name here."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here too
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_OWNER[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
