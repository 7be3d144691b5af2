"""Bytecode instructions that check_derivation executes, in one or more checkouts.

For each checkout, a fresh interpreter with the checkout's src/ on PYTHONPATH
and its root as working directory loads the 29 files of proofs/ and builds
gen_prop19(k) for k = 1..4.  It checks all 33 derivations once untraced, so
that lazily filled caches are warm, and then once more under a sys.settrace
tracer that counts 'opcode' events in every frame that the checks open.  The
count is the same from run to run and under any PYTHONHASHSEED, where wall
time is not, but it depends on the Python version.  A checkout whose checks
fail stops the script.  Standard library only:

    python3 scripts/opcodes.py CHECKOUT [CHECKOUT ...]
"""

from __future__ import annotations

import os
import subprocess
import sys

# the loop runs in the frame that arms the tracer, which is itself not traced,
# so only the instructions inside check_derivation are counted
CHILD = """
import os, sys
from kwl.proof import check_derivation, gen_prop19, load_derivation
ds = [load_derivation(os.path.join("proofs", n)) for n in sorted(os.listdir("proofs"))]
ds += [gen_prop19(k) for k in range(1, 5)]
for d in ds:
    check_derivation(d)
count = 0
def trace(frame, event, arg):
    global count
    frame.f_trace_opcodes = True
    if event == "opcode":
        count += 1
    return trace
sys.settrace(trace)
for d in ds:
    check_derivation(d)
sys.settrace(None)
print(count)
"""


def count(checkout: str) -> int:
    """The opcode count of one fresh process in the checkout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{checkout}: exited {done.returncode}: {done.stderr.strip()}")
    return int(done.stdout)


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit("usage: python3 scripts/opcodes.py CHECKOUT [CHECKOUT ...]")
    checkouts = [os.path.abspath(c) for c in argv]
    width = max(len(c) for c in checkouts)
    for checkout in checkouts:
        print(f"{checkout:<{width}}  {count(checkout):>11,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
