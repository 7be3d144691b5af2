"""One digest of what sat answers on a fixed, seeded set of calls.

Draws seeded random formulas of the Kw language (PLKw), the Kw language with
K (PLKwK) and the Kw language with announcements (PLKwA) with the test
suite's generator, asks sat about each and its negation over the ten frame
classes at sat's default budget BUDGET (10^6; the negations' answers are
valid's), and prints one SHA-256 digest of every call's verdict, prefix and
branch counts, model as compact JSON, or exception type and text.  Two
checkouts that print the same digest gave the same answers with the same
work.  The summary line also gives the budget ticks that the calls took in
all (the sum of each answer's ticks, counting budget + 1 for a call that ran
out of budget and none for one that raised another exception), which the
digest leaves out.
Standard library only; run from the repository root:

    PYTHONPATH=src:tests python3 scripts/sat_digest.py [--out FILE]

When two digests differ, --out FILE writes the per-call records, one a line,
so that diff lists the calls that differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from helpers import random_formula
from kwl.decide import BudgetExceeded, sat
from kwl.formula import Language, Not, render
from kwl.semantics import FrameClass

SEED = 0
BUDGET = 10**6
FORMULAS = 1200  # a third per language; with negations and classes, 24,000 calls
LANGUAGES = (Language.PLKw, Language.PLKwK, Language.PLKwA)

def record(f, frame_class: FrameClass) -> tuple[str, int]:
    """One call's line, the formula, the class and what sat answered, and
    the ticks that the call spent."""
    head = f"{render(f)}\t{frame_class.value}\t"
    try:
        r = sat(f, frame_class, budget=BUDGET)
    except Exception as exc:  # an exception is an answer to digest too
        spent = BUDGET + 1 if isinstance(exc, BudgetExceeded) else 0
        return head + f"raises {type(exc).__name__}: {exc}", spent
    model = "-" if r.model is None else json.dumps(r.model.to_dict(), separators=(",", ":"))
    return head + f"{r.satisfiable}\t{r.prefixes}\t{r.branches}\t{model}", r.ticks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the per-call records to this file")
    args = parser.parse_args(argv)

    rng = random.Random(SEED)
    digest = hashlib.sha256()
    lines = []
    raised = satisfiable = ticks = 0
    for n in range(FORMULAS):
        f = random_formula(rng, rng.randint(2, 5), props=("p", "q", "r"),
                           agents=("i", "j"), lang=LANGUAGES[n % len(LANGUAGES)])
        for g in (f, Not(f)):
            for frame_class in FrameClass:
                line, spent = record(g, frame_class)
                digest.update(line.encode() + b"\n")
                lines.append(line)
                raised += "\traises " in line
                satisfiable += "\tTrue\t" in line
                ticks += spent
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    print(f"calls {len(lines)}  satisfiable {satisfiable}  raised {raised}  "
          f"budget {BUDGET}  ticks {ticks}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
