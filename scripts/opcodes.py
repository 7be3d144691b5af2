"""Bytecode instructions that check_derivation and valid execute, in one or more checkouts.

For each checkout, a fresh interpreter with the checkout's src/ on PYTHONPATH
and its root as working directory takes two counts:
- check_derivation on the 29 files of proofs/ and on gen_prop19(k) for
  k = 1..4, 33 derivations;
- valid on the conclusion of gen_prop19(3) over each of the ten frame
  classes, the tableau work that dominates the decide benchmark.
Each count runs its calls once untraced, so that lazily filled caches are
warm, and then once more under a sys.settrace tracer that counts 'opcode'
events in every frame that the calls open.  A count is the same from run to
run and under any PYTHONHASHSEED, where wall time is not, but it depends on
the Python version.  A checkout whose calls fail stops the script.  Standard
library only:

    python3 scripts/opcodes.py CHECKOUT [CHECKOUT ...]
"""

from __future__ import annotations

import os
import subprocess
import sys

# the loops run in the frame that arms the tracer, which is itself not traced,
# so only the instructions inside check_derivation and valid are counted
CHILD = """
import os, sys
from kwl.decide import valid
from kwl.proof import check_derivation, gen_prop19, load_derivation
from kwl.semantics import FrameClass

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
      counted(valid, [(prop19, fc) for fc in FrameClass]))
"""


def counts(checkout: str) -> tuple[int, int]:
    """The check_derivation and valid opcode counts of one fresh process in the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: exited {done.returncode}: {done.stderr.strip()}")
    proofs, decide = done.stdout.split()
    return int(proofs), int(decide)


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit("usage: python3 scripts/opcodes.py CHECKOUT [CHECKOUT ...]")
    checkouts = [os.path.abspath(c) for c in argv]
    width = max(len(c) for c in checkouts)
    print(f"{'checkout':<{width}}  {'check_derivation':>16}  {'valid':>11}")
    for checkout in checkouts:
        proofs, decide = counts(checkout)
        print(f"{checkout:<{width}}  {proofs:>16,}  {decide:>11,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
