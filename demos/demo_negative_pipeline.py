"""
Negative weights: scaling, hop-bounded runs, recombination
==========================================================

A priced random graph has negative edges but no negative cycle.  The
pipeline first buys an almost-feasible price function by scaling, runs
the hop-bounded cut Dijkstra from a hit set, stitches the runs together
with an exact Bellman-Ford over the hit set, and verifies the assembled
tree.  The hit set is the source plus the sparsest class of depth mod k
in one approximate shortest-path tree, so it meets every path of that
tree at least once every k hops; if it still misses a path, the exact
oracle's own tree is the answer, and nothing is drawn at random.
Planting a negative cycle flips the outcome into an exactly verified
witness.
"""

from ratpath import NegativeCycle, WordBudget, bf_exact, gen_random, negative_sssp
from ratpath.graph import plant_negative_cycle

budget = WordBudget(16)
graph = gen_random(60, 180, seed=11, weight_class="small", negative_mode="priced")
negative_edges = sum(e.weight.num < 0 for e in graph.edges)
print(f"graph: {graph.n} vertices, {graph.m} edges, {negative_edges} negative")

stats = {}
tree = negative_sssp(graph, 0, seed=11, budget=budget, collect=stats)
dist = tree.distances()
oracle = bf_exact(graph, 0).dist
assert dist == oracle
print("pipeline distances equal the exact oracle")
print(f"scaling levels:        {stats['scaling_rounds']}")
print(f"hit-set size:          {stats['hitset_size']}")
print(f"total heap inserts:    {stats['cut_heap_inserts']}")
print(f"largest single run:    {stats['cut_heap_inserts_max']}")
sample = [v for v in range(graph.n) if dist[v] is not None][:5]
for v in sample:
    print(f"  dist({v}) = {dist[v]}")

bad = plant_negative_cycle(graph, seed=5)
outcome = negative_sssp(bad, 0, seed=11, budget=budget)
assert isinstance(outcome, NegativeCycle)
print(f"planted instance: cycle {list(outcome.vertices)} of weight {outcome.weight}")
