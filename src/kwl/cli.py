"""Command-line front end: model checking, deciding, reducing, translating, proof checking.

Exit codes: 0 true/ok/valid/satisfiable, 1 false/invalid/unsatisfiable or a
failed derivation step, 2 usage or input errors and internal errors, 3 exhausted
search budget or a derivation step whose tautology check gave up at its work cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decide import BudgetExceeded, sat, valid
from .fixtures import verify_fixtures
from .formula import ParseError, parse, render
from .proof import DerivationError, StepUndecided, check_derivation, load_derivation
from .semantics import (
    FrameClass,
    FrameProperty,
    ModelError,
    frame_properties,
    load_model,
    mc,
)
from .translate import el_to_kw, kw_to_el, reduce


class _UsageError(Exception):
    pass


def _load_model(path: str):
    try:
        return load_model(path)
    except (OSError, json.JSONDecodeError, ModelError) as exc:
        raise _UsageError(f"cannot load model {path}: {exc}") from exc


def _parse_formula(text: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise _UsageError(f"cannot parse formula: {exc}") from exc


def _frame_class(name: str) -> FrameClass:
    try:
        return FrameClass.parse(name)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number of at least 1, not {text!r}")
    return value


def cmd_mc(args) -> int:
    model = _load_model(args.model)
    f = _parse_formula(args.formula)
    if args.world not in model.worlds:
        raise _UsageError(f"world {args.world!r} is not in the model")
    value = mc(model, args.world, f)
    print("true" if value else "false")
    return 0 if value else 1


def cmd_decide(args) -> int:
    """kwl decide and kwl sat: print the answer, and write the model that
    comes with an invalid (a countermodel) or a satisfiable verdict."""
    f = _parse_formula(args.formula)
    cls = _frame_class(args.frame_class)
    try:
        r = args.decision(f, cls, budget=args.budget)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    positive, model = args.outcome(r)
    yes, no = args.answers
    print(yes if positive else no)
    if model is not None and args.model_path:
        with open(args.model_path, "w") as fh:
            fh.write(model.to_json())
    return 0 if positive else 1


def cmd_reduce(args) -> int:
    f = _parse_formula(args.formula)
    try:
        print(render(reduce(f)))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return 0


def cmd_translate(args) -> int:
    f = _parse_formula(args.formula)
    fn = kw_to_el if args.direction == "t" else el_to_kw
    try:
        print(render(fn(f)))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return 0


def cmd_check(args) -> int:
    try:
        d = load_derivation(args.proof)
    except OSError as exc:
        raise _UsageError(f"cannot load derivation {args.proof}: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        check_derivation(d)
    except StepUndecided as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except DerivationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print("ok")
    return 0


def cmd_frame(args) -> int:
    model = _load_model(args.model)
    props = frame_properties(model)
    print(" ".join(p.value for p in FrameProperty if p in props))
    return 0


def cmd_fixtures(args) -> int:
    for claim in verify_fixtures():
        print(claim)
    print("ok")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kwl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mc", help="evaluate a formula at a world of a model")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_mc)

    # each: the decision, its verdict and model, the answer words, the model option
    for name, decision, outcome, answers, model_option in (
            ("decide", valid, lambda r: (r.valid, r.countermodel),
             ("valid", "invalid"), "countermodel"),
            ("sat", sat, lambda r: (r.satisfiable, r.model),
             ("satisfiable", "unsatisfiable"), "model")):
        p = sub.add_parser(name, help=f"{name} a formula over a frame class")
        p.add_argument("formula")
        p.add_argument("--class", dest="frame_class", default="K",
                       help="frame class name (default K)")
        p.add_argument(f"--{model_option}", dest="model_path",
                       metavar=model_option.upper(),
                       help=f"write the found {model_option} to this file")
        p.add_argument("--budget", type=_budget, default=10**6,
                       help="tableau work budget (default 1000000)")
        p.set_defaults(fn=cmd_decide, decision=decision, outcome=outcome, answers=answers)

    p = sub.add_parser("reduce", help="rewrite announcements away")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("translate", help="translate between Kw and K languages")
    p.add_argument("direction", choices=["t", "tprime"])
    p.add_argument("formula")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check", help="replay a derivation file")
    p.add_argument("proof")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("frame", help="report frame properties of a model")
    p.add_argument("model")
    p.set_defaults(fn=cmd_frame)

    p = sub.add_parser("fixtures", help="fixture self-tests")
    p.add_argument("action", choices=["verify"])
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"kwl: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"kwl: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("kwl: input too deeply nested", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 0 and 1 are answers; a fault must not read as one
        print(f"kwl: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
