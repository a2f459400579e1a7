"""The host-speed probe of the benchmark, run as a helper process.

    python3 perfbench/probe.py

For each line read from standard input, it runs probe() once and writes
the seconds taken as one line. It exits at the end of its input. run.py
scales each child's times by the speed this probe measures.
"""

import random
import sys
import time
from fractions import Fraction

_POLY = {(i, j): Fraction(i + 1, j + 2)
         for i in range(-3, 4) for j in range(5)}
# a memo-sized dict, and keys to look up in it
_rng = random.Random(0)
_MEMO = {(_rng.randrange(1 << 30), i): i for i in range(200_000)}
_KEYS = _rng.sample(list(_MEMO), 50_000)


def probe():
    """Seconds taken by a fixed pure-Python task, independent of qpbcalc.

    The task is the two kinds of work qpbcalc does: arithmetic on small
    sparse Laurent polynomials (dicts from exponent tuples to Fractions),
    which runs in cache, and lookups of tuple keys in a dict too large for
    the cache, as in its memos. A shared host's speed drifts by a third
    within minutes and by a fifth within seconds. The program's time and
    the probe's time drift together, so their ratio is steadier than
    either. The arithmetic alone drifted up to 1.8 times as much as
    qpbcalc did, and the lookups alone tracked it less closely; the two
    together drifted as much as qpbcalc and tracked it best. The probe
    must run alone: timed while a child runs on the other core, it
    tracked the child's time far worse."""
    t0 = time.perf_counter()
    g = _POLY
    for _ in range(2):
        h = {}
        for m1, c1 in g.items():
            for m2, c2 in _POLY.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                c = h.get(m, 0) + c1 * c2
                if c:
                    h[m] = c
                else:
                    h.pop(m, None)
        g = h
    total = 0
    for key in _KEYS:
        total += _MEMO[key]
    return time.perf_counter() - t0


def main():
    probe()  # warm-up
    for _ in sys.stdin:
        print(probe(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
