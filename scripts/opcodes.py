"""Bytecode instructions that check_derivation, valid and the model loader execute,
in one or more checkouts.

For each checkout, a fresh interpreter with the checkout's src/ on PYTHONPATH
and its root as working directory takes three counts:
- check_derivation on the 29 files of proofs/ and on gen_prop19(k) for
  k = 1..4, 33 derivations;
- valid on the conclusion of gen_prop19(3) over each of the ten frame
  classes, the tableau work that dominates the decide benchmark;
- load: load_model and then frame_properties, as `kwl frame` runs them, on
  one model document that this script writes before the checkouts run, with
  the benchmark's generator of modelcheck models, bench/gen.py's
  random_model(random.Random(1), 100, ("p", "q", "r")): 100 worlds, agent
  i's relation an equivalence with blocks of 4 worlds, agent j's two random
  successors per world (600 edges in all), and p, q and r each true at 50
  worlds.  json.loads
  parses the text in C, so the parse itself is not counted, only the 93
  instructions (CPython 3.11) of its Python wrappers; the count covers the
  loader's Python code from the parsed document to the masks, and the
  property tests.
Each count runs its calls once untraced, so that lazily filled caches are
warm, and then once more under a sys.settrace tracer that counts 'opcode'
events in every frame that the calls open.  A count is the same from run to
run and under any PYTHONHASHSEED, where wall time is not, but it depends on
the Python version.  A checkout whose calls fail stops the script.  Standard
library only:

    python3 scripts/opcodes.py CHECKOUT [CHECKOUT ...]
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench"))
from gen import random_model  # noqa: E402

# the loops run in the frame that arms the tracer, which is itself not traced,
# so only the instructions inside the counted calls are counted; argv[1] is
# the model document
CHILD = """
import os, sys
from kwl.decide import valid
from kwl.proof import check_derivation, gen_prop19, load_derivation
from kwl.semantics import FrameClass, frame_properties, load_model

def counted(call, inputs):
    for x in inputs:
        call(*x)
    count = 0
    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        if event == "opcode":
            count += 1
        return trace
    sys.settrace(trace)
    for x in inputs:
        call(*x)
    sys.settrace(None)
    return count

ds = [load_derivation(os.path.join("proofs", n)) for n in sorted(os.listdir("proofs"))]
ds += [gen_prop19(k) for k in range(1, 5)]
prop19 = gen_prop19(3).steps[-1].formula
print(counted(check_derivation, [(d,) for d in ds]),
      counted(valid, [(prop19, fc) for fc in FrameClass]),
      counted(lambda path: frame_properties(load_model(path)), [(sys.argv[1],)]))
"""

SEED = 1


def counts(checkout: str, document: str) -> tuple[int, int, int]:
    """The check_derivation, valid and load opcode counts of one fresh process in the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, document], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: exited {done.returncode}: {done.stderr.strip()}")
    proofs, decide, load = done.stdout.split()
    return int(proofs), int(decide), int(load)


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit("usage: python3 scripts/opcodes.py CHECKOUT [CHECKOUT ...]")
    checkouts = [os.path.abspath(c) for c in argv]
    width = max(len(c) for c in checkouts)
    with tempfile.TemporaryDirectory() as tmp:
        document = os.path.join(tmp, "model.json")
        with open(document, "w", encoding="utf-8") as fh:
            json.dump(random_model(random.Random(SEED), 100, ("p", "q", "r")), fh)
        print(f"{'checkout':<{width}}  {'check_derivation':>16}  {'valid':>11}  {'load':>9}")
        for checkout in checkouts:
            proofs, decide, load = counts(checkout, document)
            print(f"{checkout:<{width}}  {proofs:>16,}  {decide:>11,}  {load:>9,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
