"""Command-line front end: model checking, deciding, reducing, translating, proof checking.

Exit codes: 0 true/ok/valid/satisfiable, 1 false/invalid/unsatisfiable or a
failed derivation step, 2 usage or input errors and internal errors, 3 exhausted
search budget, a derivation step whose tautology check gave up at its work cap,
or a reduced or translated formula too large to print.
"""

from __future__ import annotations

import argparse
import functools
import sys

# Each command imports the modules it runs, so that a process loads only those:
# kwl mc and kwl frame need no tableau, rewriter or proof checker.
from .formula import ParseError, fold, parse, render
from .semantics import (
    FrameClass,
    FrameProperty,
    ModelError,
    frame_properties,
    load_model,
    mc,
)


_OUTPUT_CAP = 1 << 23  # the most nodes, as a tree, that kwl reduce and kwl translate print


class _UsageError(Exception):
    pass


def _load_model(path: str):
    try:
        return load_model(path)
    except (OSError, UnicodeDecodeError, ModelError) as exc:
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
    """kwl decide and kwl sat: write the model that comes with an invalid (a
    countermodel) or a satisfiable verdict, then print the answer."""
    from .decide import BudgetExceeded, sat, valid

    f = _parse_formula(args.formula)
    cls = _frame_class(args.frame_class)
    try:
        if args.command == "decide":
            r = valid(f, cls, budget=args.budget)
            positive, model, kind, yes, no = (r.valid, r.countermodel, "countermodel",
                                              "valid", "invalid")
        else:
            r = sat(f, cls, budget=args.budget)
            positive, model, kind, yes, no = (r.satisfiable, r.model, "model",
                                              "satisfiable", "unsatisfiable")
    except BudgetExceeded as exc:
        print(f"kwl: {exc}", file=sys.stderr)
        return 3
    if model is not None and args.model_path:
        try:
            with open(args.model_path, "w") as fh:
                fh.write(model.to_json())
        except OSError as exc:
            raise _UsageError(f"cannot write {kind} {args.model_path}: {exc}") from exc
    print(yes if positive else no)
    return 0 if positive else 1


def cmd_rewrite(args) -> int:
    """kwl reduce and kwl translate: print the rewritten formula if it fits the cap."""
    from .translate import el_to_kw, kw_to_el, reduce

    f = _parse_formula(args.formula)
    rewrite = (reduce if args.command == "reduce"
               else kw_to_el if args.direction == "t" else el_to_kw)
    try:
        g = rewrite(f)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    # the size as a tree, counted over the DAG and clipped just past the cap
    size = fold(g, lambda h, image: min(1 + sum(map(image, h.children())), _OUTPUT_CAP + 1))
    if size > _OUTPUT_CAP:
        print(f"kwl: the output has more than {_OUTPUT_CAP} nodes", file=sys.stderr)
        return 3
    print(render(g))
    return 0


def cmd_check(args) -> int:
    from .proof import DerivationError, StepUndecided, check_derivation, load_derivation

    try:
        d = load_derivation(args.proof)
    except (OSError, UnicodeDecodeError) as exc:
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
    from .fixtures import verify_fixtures

    for claim in verify_fixtures():
        print(claim)
    print("ok")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call of main."""
    parser = argparse.ArgumentParser(prog="kwl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mc", help="evaluate a formula at a world of a model")
    p.add_argument("model")
    p.add_argument("world")
    p.add_argument("formula")
    p.set_defaults(run=cmd_mc)

    for name, model_option in (("decide", "countermodel"), ("sat", "model")):
        p = sub.add_parser(name, help=f"{name} a formula over a frame class")
        p.add_argument("formula")
        p.add_argument("--class", dest="frame_class", default="K",
                       help="frame class name (default K)")
        p.add_argument(f"--{model_option}", dest="model_path",
                       metavar=model_option.upper(),
                       help=f"write the found {model_option} to this file")
        p.add_argument("--budget", type=_budget, default=10**6,
                       help="tableau work budget (default 1000000)")
        p.set_defaults(run=cmd_decide)

    p = sub.add_parser("reduce", help="rewrite announcements away")
    p.add_argument("formula")
    p.set_defaults(run=cmd_rewrite)

    p = sub.add_parser("translate", help="translate between Kw and K languages")
    p.add_argument("direction", choices=["t", "tprime"])
    p.add_argument("formula")
    p.set_defaults(run=cmd_rewrite)

    p = sub.add_parser("check", help="replay a derivation file")
    p.add_argument("proof")
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("frame", help="report frame properties of a model")
    p.add_argument("model")
    p.set_defaults(run=cmd_frame)

    p = sub.add_parser("fixtures", help="fixture self-tests")
    p.add_argument("action", choices=["verify"])
    p.set_defaults(run=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"kwl: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("kwl: input too deeply nested", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 0 and 1 are answers; a fault must not read as one
        print(f"kwl: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
