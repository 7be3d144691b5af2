"""Peak memory and time of a deep one-branch search, in one or more checkouts.

For each checkout and each n of DEPTHS, a fresh interpreter with the
checkout's src/ on PYTHONPATH and its root as working directory runs
valid(Kw[i]^n p, K) once.  Its search has one open branch of 2n+1 worlds
below n split levels.  The search runs in a loop, but the normal form pass
takes stack frames per level, so the call runs in one thread with a 256 MiB
stack after sys.setrecursionlimit(60_000).  The script prints the verdict,
the prefixes, the seconds of the call, and the process's peak RSS
(ru_maxrss) in MB.  A checkout whose call fails stops the script.  Standard
library only:

    python3 scripts/depth.py CHECKOUT [CHECKOUT ...]
"""

from __future__ import annotations

import os
import subprocess
import sys

DEPTHS = (200, 400, 800)
CHILD = """
import resource, sys, threading, time
from kwl.decide import valid
from kwl.formula import Kw, Prop
from kwl.semantics import FrameClass

def run():
    sys.setrecursionlimit(60_000)
    f = Prop("p")
    for _ in range(int(sys.argv[1])):
        f = Kw("i", f)
    start = time.perf_counter()
    r = valid(f, FrameClass.K)
    seconds = time.perf_counter() - start
    print(r.valid, r.prefixes, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

threading.stack_size(256 * 2**20)
worker = threading.Thread(target=run)
worker.start()
worker.join()
"""


def measure(checkout: str, n: int) -> tuple[str, int, float, float]:
    """The verdict, prefixes, seconds and peak RSS in MB of one fresh process at depth n."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, str(n)], cwd=checkout, env=env,
                          capture_output=True, text=True)
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 4:  # a failure in the thread still exits 0
        sys.exit(f"{checkout}: n = {n} exited {done.returncode}: {done.stderr.strip()}")
    verdict, prefixes, seconds, kib = fields
    return verdict, int(prefixes), float(seconds), int(kib) / 1024


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit("usage: python3 scripts/depth.py CHECKOUT [CHECKOUT ...]")
    checkouts = [os.path.abspath(c) for c in argv]
    width = max(len(c) for c in checkouts)
    print(f"{'checkout':<{width}}  {'n':>5}  {'valid':>5}  {'prefixes':>8}  {'s':>6}  {'peak MB':>7}")
    for checkout in checkouts:
        for n in DEPTHS:
            verdict, prefixes, seconds, mb = measure(checkout, n)
            print(f"{checkout:<{width}}  {n:>5}  {verdict:>5}  {prefixes:>8,}  {seconds:>6.2f}  {mb:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
