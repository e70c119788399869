"""The machine's momentary speed, measured with fixed pieces of reference work.

The benchmark runs on shared machines whose speed wanders by up to about 1.8x
for seconds to minutes at a time, with both cores together (see README.md,
Noise). A run of the benchmark cannot outlast such a spell, so raw times of
the same code differ by that much between runs. The benchmark therefore
interleaves short pieces of fixed work with its operations and reports every
end-to-end time at the reference speed: raw seconds divided by how much
slower than their reference the nearby pieces ran.

The pieces are written here, not taken from the package, so no change to the
package moves them. There are two, because the slow spells do not slow all
code alike:
- "loop": small-integer arithmetic in an interpreter loop, like the
  permutation sweeps of enumeration;
- "poly": a product of two dict polynomials with ~200-bit coefficients, like
  BivarPoly arithmetic.
Each workload names the weights of the pieces that match its own code.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import Dict, List, Tuple

#: Seconds each piece takes at the reference speed: about its time in the fast
#: state of the 2-core Xeon KVM guest the benchmark was built on, Python 3.11.
#: Fixed, so that runs on different commits and days compare.
REFERENCE = {"loop": 0.0075, "poly": 0.0042}

#: A sample is taken before and after every pass and at most this often within one.
INTERVAL_S = 0.1
#: A sample runs the pieces again until they have taken this share of the time
#: since the previous sample, so that long operations get as many pieces
#: around them as a run of short ones.
DUTY = 0.08
#: Gaps longer than this (and the first sample of a run) count as this long.
MAX_GAP_S = 5.0
#: An operation's slowness is the median over this many samples nearest to it in time.
NEAREST = 4

LOOP_N = 100_000
_POLY = {(e, v): 7 ** (60 + 3 * e + v) * (1 if (e + v) % 3 else -1) for e in range(12) for v in range(12) if e + v < 14}


def loop_piece() -> int:
    s = 0
    for i in range(LOOP_N):
        s += i * i % 7
    return s


def poly_piece() -> dict:
    out: dict = {}
    for (e1, v1), c1 in _POLY.items():
        for (e2, v2), c2 in _POLY.items():
            ev = (e1 + e2, v1 + v2)
            s = out.get(ev, 0) + c1 * c2
            if s:
                out[ev] = s
            else:
                del out[ev]
    return out


PIECES = {"loop": loop_piece, "poly": poly_piece}


class Speed:
    """Samples of the machine's slowness over a run: piece time / reference time."""

    def __init__(self, weights: Dict[str, float]):
        total = sum(weights.values())
        self.weights = {k: w / total for k, w in weights.items()}
        # (perf_counter at the sample's middle, {piece: time / reference}), in time order
        self.samples: List[Tuple[float, Dict[str, float]]] = []
        self.times: List[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        """Run the pieces, at least once each, and record their mean ratios."""
        start = time.perf_counter()
        budget = DUTY * min(start - self.last, MAX_GAP_S)
        runs: Dict[str, List[float]] = {kind: [] for kind in self.weights}
        while True:
            for kind, ratios in runs.items():
                t = time.perf_counter()
                PIECES[kind]()
                ratios.append((time.perf_counter() - t) / REFERENCE[kind])
            if time.perf_counter() - start >= budget:
                break
        self.last = time.perf_counter()
        self.samples.append(((start + self.last) / 2, {kind: statistics.mean(r) for kind, r in runs.items()}))
        self.times.append(self.samples[-1][0])

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def slowness(self, start: float, end: float) -> float:
        """How many times slower than the reference the machine ran around [start, end].

        The weighted geometric mean of the pieces' ratios, per sample, then the
        median over the NEAREST samples to the middle of the interval.
        """
        mid = (start + end) / 2
        i = bisect.bisect(self.times, mid)
        window = self.samples[max(0, i - NEAREST) : i + NEAREST]
        nearest = sorted(window, key=lambda s: abs(s[0] - mid))[:NEAREST]
        return statistics.median(
            math.exp(sum(w * math.log(ratios[k]) for k, w in self.weights.items())) for _, ratios in nearest
        )
