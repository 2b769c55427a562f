"""Seed-generated CLI invocation lists for the three benchmark workloads.

A workload is an endless-looking but fixed sequence of *cycles*; a cycle is
a short list of `cdalg` argv lists whose composition (how many ops of each
kind) never changes, only the seeded operands do.  Runs always execute whole
cycles, so every run measures the same mix and the latency percentiles land
inside the same cluster of op kinds on every seed:

* the kind chosen to hold p50 covers the ranks around 50%,
* the kind chosen to hold p90 covers ranks from about 75% to 95%, so the
  percentile stays inside it when a slow run has fewer than 100 samples
  and the highest percentile with ten samples above it is below p90.

The program under test receives only the generated argv lists.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Argv = Tuple[str, ...]

DEFAULT_SEED = 0
# cycles per op list; a run wraps around to cycle 0 once they are used up
CYCLES = 16

# The levels at which each workload multiplies, used to warm lazy per-level
# state before timing and to time it in the set-up probe.
LEVELS: Dict[str, Tuple[int, ...]] = {
    "zd_search": (3, 4, 5),
    "decompose_spectral": (4, 5),
    "verify_identities": (4, 6),
}


def _search(level: int, family: str, *extra: str) -> Argv:
    return ("search", "-n", str(level), "--family", family, *extra,
            "--format", "json")


def _zd_search_cycle(rng: random.Random, index: int) -> List[Argv]:
    # by latency: one random level-3 pair (~0.07 s, ranks 0-25%) < one basis
    # couple (~0.1 s, ranks 25-75%, holds p50) < three basis couples
    # (~0.3 s, ranks 75-94%, holds p90) < one random level-4 pair (0.2-0.7 s)
    def r3() -> Argv:
        return _search(3, "random_rational", "--count", "1",
                       "--seed", str(rng.randrange(1 << 31)))

    b2 = _search(3, "basis_pairs", "--max-index", "2")
    s2 = _search(3, "basis_sum_pairs", "--max-index", "2")
    b3 = _search(3, "basis_pairs", "--max-index", "3")
    r4 = _search(4, "random_rational", "--count", "1",
                 "--seed", str(rng.randrange(1 << 31)))
    return [b3, r3(), b2, s2, r3(), b2, b3, s2, r4, r3(), b2, s2, b3, r3(),
            b2, s2]


# Dense coefficients stay small because decompose clusters the float
# eigenvalues of L_a^2 with an absolute gap of 1e-9, while their rounding
# error grows with |a|^2.  With coefficients up to +-50 the error of a band
# reached 1.6e-9 on one level-5 element in a few hundred, which split the
# band and made decompose exit 1 ("middle band dimension 2 not 0 mod 4").
# Up to +-5 the largest error seen (2000 level-4 and 250 level-5 elements)
# was 7e-12, over a hundred times below the gap.
DENSE_BOUND = 5
SPARSE_BOUND = 3


def doubly_pure_text(rng: random.Random, level: int, dense: bool) -> str:
    """Element text with zero e0 and e_half coordinates.  Dense: every
    other coordinate nonzero in [-DENSE_BOUND, DENSE_BOUND]; sparse: 2-4
    terms in [-SPARSE_BOUND, SPARSE_BOUND]."""
    dim = 1 << level
    pool = [i for i in range(1, dim) if i != dim // 2]
    bound = DENSE_BOUND if dense else SPARSE_BOUND
    support = pool if dense else sorted(rng.sample(pool, rng.randint(2, 4)))
    terms = []
    for i in support:
        c = rng.choice([v for v in range(-bound, bound + 1) if v])
        terms.append(f"{'-' if c < 0 else '+'}{abs(c)}*e{i}")
    return "".join(terms).lstrip("+")


def _decompose_cycle(rng: random.Random, index: int) -> List[Argv]:
    # level-4 sparse (~65 ms, ranks 0-70%, holds p50) < level-4 dense
    # (~85 ms, ranks 70-95%, holds p90) < one level-5 element (0.4-0.8 s,
    # dense on even cycles and sparse on odd ones; over a quarter of the
    # time, mostly in mat_mul, nullspace and the Jacobi solver)
    def dec(level: int, dense: bool) -> Argv:
        # "--" because element text may start with a minus sign
        return ("decompose", "-n", str(level), "--format", "json", "--",
                doubly_pure_text(rng, level, dense))

    kinds = [(4, False)] * 14 + [(4, True)] * 5 + [(5, index % 2 == 0)]
    order = [0, 14, 1, 2, 15, 3, 4, 19, 5, 6, 16, 7, 8, 17, 9, 10, 18, 11, 12, 13]
    return [dec(*kinds[i]) for i in order]


def _verify_cycle(rng: random.Random, index: int) -> List[Argv]:
    # core level 6 (~0.2 s) and chapter1 level 4 (~0.25 s, hold p50) <
    # core level 6 with two trials (~0.4 s, ranks 75-100%, holds p90)
    def verify(suite: str, level: int, trials: int) -> Argv:
        return ("verify", "--suite", suite, "-n", str(level),
                "--trials", str(trials), "--seed", str(rng.randrange(1 << 31)))

    return [verify("core_identities", 6, 1), verify("chapter1", 4, 1),
            verify("core_identities", 6, 2), verify("chapter1", 4, 1),
            verify("core_identities", 6, 1), verify("chapter1", 4, 1),
            verify("core_identities", 6, 2), verify("core_identities", 6, 1)]


_CYCLE = {
    "zd_search": _zd_search_cycle,
    "decompose_spectral": _decompose_cycle,
    "verify_identities": _verify_cycle,
}

WORKLOADS = tuple(_CYCLE)


def cycles(workload: str, seed: int) -> List[List[Argv]]:
    """The workload's op list for a seed, as CYCLES cycles of argv tuples."""
    rng = random.Random(f"{workload}:{seed}")
    make = _CYCLE[workload]
    return [make(rng, i) for i in range(CYCLES)]
