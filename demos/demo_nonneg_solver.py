"""
Non-negative solver on an adversarial gadget
============================================

The two-path gadget carries twin routes whose exact weights differ by a
tiny rational gap; floating point cannot tell them apart.  The solver
resolves the gap exactly while keeping all distance comparisons inside
the hierarchical comparison structure; the counters show how few
comparisons ever needed more than the cheap approximation test.
"""

from ratpath import bf_exact, dijkstra_nonneg, gen_small_diff, verify_sssp

graph, gap = gen_small_diff(30)
sink = graph.n - 1
print(f"gadget: {graph.n} vertices, {graph.m} edges, twin gap {gap}")

stats = {}
tree = dijkstra_nonneg(graph, 0, strategy="distcmp", seed=7, collect=stats)
dist = tree.distances()
print(f"distance to sink: {dist[sink]}")

oracle = bf_exact(graph, 0)
assert dist == oracle.dist, "solver disagrees with the exact oracle"
print("matches the exact Bellman-Ford oracle on every vertex")

outcome = verify_sssp(graph, tree, mode="exact")
print(f"self-verification: {'valid' if outcome.valid else outcome.reason}")

print(f"heap pushes:        {stats['heap_pushes']}")
print(f"relaxations:        {stats['relaxations']}")
print(f"queries per level:  {stats['distcmp.level_queries']}")
print(f"trivial answers:    {stats['distcmp.trivial_answers']}")
print(f"easy answers:       {stats['distcmp.easy_answers']}")
print(f"  on exact values:  {stats['distcmp.shortcut_answers']}")
print(f"proven ties:        {stats['distcmp.tie_answers']}")
print(f"difficult answers:  {stats['distcmp.difficult_answers']}")
print(f"cover fallbacks:    {stats['distcmp.cover_fallbacks']}")
