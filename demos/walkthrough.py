"""End-to-end tour of the toolkit on the bundled Simpsons world.

Run with:  python3 demos/walkthrough.py
"""

from kgbench import (
    PatternTriple,
    Variable,
    enumerate_paths,
    generate_choice,
    generate_fill,
    generate_path,
    person,
    entity,
    score_paths,
    solve_pattern,
)
from kgbench.datasets import simpsons_graph
from kgbench.protocol import emit_query_xml

g = simpsons_graph()
print(f"world: {g.node_count} nodes, {g.edge_count} edges\n")

# --- fill queries: solve for the unknowns ------------------------------
X, Y = Variable("Unknown_1"), Variable("Unknown_2")
pattern = [
    PatternTriple(X, "Spouse of", person("Marge")),
    PatternTriple(X, "Friend of", person("Lenny")),
    PatternTriple(Y, "Volunteers at", entity("Church")),
    PatternTriple(Y, "Neighbor of", X),
]
for binding in solve_pattern(g, pattern):
    print("fill solution:", {name: node.name for name, node in sorted(binding)})

# --- path queries: every simple route between two people ----------------
source, target = person("Superintendent Chalmers"), person("Lenny")
print(f"\nroutes {source.name} -> {target.name} (max 4 edges):")
for p in enumerate_paths(g, source, target, max_edges=4):
    hops = " ".join(
        f"-[{rel}]-> {node.name}" for rel, node in zip(p.relations, p.nodes[1:])
    )
    print(f"  {p.nodes[0].name} {hops}")

# --- seeded generation: same seed, same queries, keys included ----------
fill = generate_fill(g, seed=42, count=2, require_unique=True)
choice = generate_choice(g, seed=43, count=2, n_options=5)
paths = generate_path(g, seed=44, count=1, max_edges=4)
print("\na generated choice query:")
q = choice[0]
print(f"  what relates {q.subject.name} and {q.object.name}?")
for i, option in enumerate(q.options):
    marker = " (correct)" if i == q.key else ""
    print(f"    {i + 1}. {option}{marker}")

print("\nfill queries as participants receive them (no keys):")
print(emit_query_xml(fill))

# --- scoring: the exhaustive key scores perfectly ------------------------
pq = paths[0]
score = score_paths(g, pq, list(pq.key))
print(
    f"oracle submission for {pq.id}: recall {score.recall:.2f}, "
    f"precision {score.precision:.2f}, f1 {score.f1:.2f}"
)
