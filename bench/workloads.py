"""Instance sets of the benchmark workloads.

Each workload turns a seed into a fixed list of serialized instances, so
every run with the same seed times the same work.  Instances are written
with `ratpath.serialize` and read back with `ratpath.parse` during set-up;
generation itself is not timed.

A workload also names the calls it times: the solver (the default path),
the repo's exact oracle, and, on non-negative graphs, the
`pairwise_delta` strategy.
"""

from __future__ import annotations

import numpy as np

# Per workload and size: graph size and instance count.  "full" is what
# the benchmark measures, with the instance count proportional to the
# run's seconds (sized so that one run takes about that long on a 2-CPU
# host); "tiny" exists for the self-test.
SIZES = {
    "nonneg-ties": {"full": ({"n": 40}, 6.0), "tiny": ({"n": 12}, 4)},
    "gadget-chain": {"full": ({"chain": 66}, 1.4), "tiny": ({"chain": 5}, 3)},
    "neg-deep": {"full": ({"n": 16}, 1.4), "tiny": ({"n": 8}, 3)},
}
MIN_COUNT = 20


def instance_seed(seed: int, i: int) -> int:
    """Seed of instance i, also passed to the solver for that instance."""
    return seed * 1_000_003 + i


def _primes(count: int):
    """The first `count` primes."""
    bound = 16
    while True:
        sieve = bytearray([1]) * bound
        sieve[0:2] = b"\0\0"
        for p in range(2, int(bound**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(range(p * p, bound, p)))
        primes = [p for p in range(bound) if sieve[p]]
        if len(primes) >= count:
            return primes[:count]
        bound *= 2


def _ties(rp, seed: int, count: int, n: int):
    # gen_random skeleton with every weight 1/3: exact ties everywhere.
    third = rp.BigRational(1, 3)
    out = []
    for i in range(count):
        g = rp.gen_random(n, 4 * n, instance_seed(seed, i))
        out.append(rp.WeightedDigraph(n, [(e.tail, e.head, third) for e in g.edges], source=0))
    return out


def _gadget(rp, seed: int, count: int, chain: int):
    # Padded window-3 small-difference chain; the chain itself has no
    # seed, so each instance relabels the non-source vertices.
    bound = _primes(3 * chain)[-1] + 1
    base, _ = rp.gen_small_diff(bound, padding=True, chain=chain, window=3)
    out = []
    for i in range(count):
        rng = np.random.default_rng(instance_seed(seed, i))
        label = [0] + [int(x) + 1 for x in rng.permutation(base.n - 1)]
        edges = [(label[e.tail], label[e.head], e.weight) for e in base.edges]
        out.append(rp.WeightedDigraph(base.n, edges, source=0))
    return out


def _neg_deep(rp, seed: int, count: int, n: int):
    # Random small-weight skeleton plus a zero-weight backbone
    # 0 -> n-1 -> n-2 -> ... -> 1, then a random vertex potential.  The
    # backbone makes every vertex reachable and the trees deep; since
    # `serialize` sorts edges by tail, the backbone is listed against the
    # path order and Bellman-Ford advances one backbone hop per round.
    zero = rp.BigRational(0)
    out = []
    for i in range(count):
        s = instance_seed(seed, i)
        base = rp.gen_random(n, 3 * n, s, "small")
        backbone = [(0, n - 1)] + [(v, v - 1) for v in range(n - 1, 1, -1)]
        on_path = set(backbone)
        edges = [(e.tail, e.head, e.weight) for e in base.edges if (e.tail, e.head) not in on_path]
        edges += [(u, v, zero) for u, v in backbone]
        rng = np.random.default_rng([s, 1])
        potential = []
        for _ in range(n):
            num = int(rng.integers(0, 17))
            den = int(rng.integers(1, 17))
            potential.append(rp.BigRational(-num if rng.integers(0, 2) else num, den))
        priced = [(u, v, w - potential[u] + potential[v]) for u, v, w in edges]
        out.append(rp.WeightedDigraph(n, priced, source=0))
    return out


_BUILDERS = {"nonneg-ties": _ties, "gadget-chain": _gadget, "neg-deep": _neg_deep}

WORKLOADS = tuple(SIZES)


def instance_count(workload: str, size: str, seconds: float) -> int:
    params, count = SIZES[workload][size]
    if size == "full":
        count = max(MIN_COUNT, round(count * seconds))
    return count


def generate(rp, workload: str, seed: int, size: str = "full", seconds: float = 30):
    """Serialized instances of `workload` for `seed`, in a fixed order."""
    params, _ = SIZES[workload][size]
    count = instance_count(workload, size, seconds)
    graphs = _BUILDERS[workload](rp, seed, count=count, **params)
    return [rp.serialize(g) for g in graphs]


def is_negative(workload: str) -> bool:
    return workload == "neg-deep"


def solve(rp, workload: str, g, seed: int, collect):
    """The default solver path of the workload."""
    if is_negative(workload):
        return rp.negative_sssp(g, 0, seed=seed, collect=collect)
    return rp.dijkstra_nonneg(g, 0, strategy="distcmp", seed=seed, collect=collect)


def oracle(rp, workload: str, g):
    """The repo's exact baseline on the same instance."""
    if is_negative(workload):
        return rp.bf_exact(g, 0)
    return rp.dijkstra_nonneg(g, 0, strategy="exact_oracle")


def oracle_distances(rp, workload: str, result):
    if isinstance(result, rp.NegativeCycle):
        raise RuntimeError(f"oracle reports a negative cycle on a cycle-free instance: {result}")
    if is_negative(workload):
        return result.dist
    return result.distances()


def pairwise(rp, g, seed: int):
    """The third shipped non-negative strategy."""
    return rp.dijkstra_nonneg(g, 0, strategy="pairwise_delta", seed=seed)
