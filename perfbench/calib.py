"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a small share of a machine that others also use,
and its speed drifts: the same pure-Python loop can take twice as long a
few minutes later.  Every timing a run reports is therefore scaled by a
reference measured next to it.  Before each operation, and once more at
the end of each round, the run times this kernel for a share of the
previous operation's time; an operation's time is divided by the mean of
the references just before and just after it, and multiplied by `REF_S`,
the kernel's time on a quiet host.  The result reads as the seconds the
operation would take at that quiet speed.  A change to the program moves
it; a busier host, in the main, does not.

The kernel does the kinds of work the program does, on data of its own
and with no code from `src/`: byte-table popcounts over 64-bit words,
`bisect` lookups in a sorted list, index chasing through a small list,
building small lists, and regex tokenizing into a dict.  Random reads
across a large list were tried and left out: of the parts tried, their
times followed the program's least closely.
"""

import random
import re
import time
from bisect import bisect_left

REF_S = 0.003   # one kernel run on a quiet 2-core Xeon VM, Python 3.11
DUTY = 0.2      # reference time, as a share of the operation before it
MIN_RUNS = 3

_rng = random.Random("perfbench-calib")
_POP = bytes(bin(i).count("1") for i in range(256))
_WORDS = [_rng.getrandbits(64) for _ in range(1024)]
_SORTED = sorted(_rng.randrange(1 << 30) for _ in range(1 << 14))
_KEYS = [_rng.randrange(1 << 30) for _ in range(1024)]
_CHASE = list(range(4096))
_rng.shuffle(_CHASE)
_TEXT = "".join(f"(L{_rng.randrange(10**5)}:0.{_rng.randrange(10**6):06d},"
                for _ in range(600))
_TOKEN = re.compile(r"[(),:;]|[^(),:;]+")


def kernel():
    pop = _POP
    s = 0
    for w in _WORDS:
        s += (pop[w & 255] + pop[(w >> 8) & 255] + pop[(w >> 16) & 255]
              + pop[(w >> 24) & 255] + pop[(w >> 32) & 255]
              + pop[(w >> 40) & 255])
    for k in _KEYS:
        s += bisect_left(_SORTED, k)
    chase = _CHASE
    i = 0
    for _ in range(8192):
        i = chase[i]
        s += i & 1
    pairs = [[k, k + 1] for k in range(2048)]
    seen = {}
    for tok in _TOKEN.findall(_TEXT):
        seen[tok] = seen.get(tok, 0) + 1
    return s + len(seen) + len(pairs)


def reference(after_s=0.0):
    """Mean seconds of one kernel run now, over at least MIN_RUNS runs and
    DUTY * `after_s` seconds."""
    want = DUTY * after_s
    runs = 0
    t0 = time.perf_counter()
    while True:
        kernel()
        runs += 1
        spent = time.perf_counter() - t0
        if runs >= MIN_RUNS and spent >= want:
            return spent / runs
