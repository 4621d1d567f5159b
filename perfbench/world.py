"""Seeded synthetic story worlds and the workloads that use them.

A world is drawn from ``kgbench.rng.SplitMix64`` and written as TGF or XGML
text by this module, never through ``kgbench.formats.emit_*``, so the bytes a
run feeds to the CLI stay fixed when an emitter changes.
"""

from __future__ import annotations

from dataclasses import dataclass

from kgbench.rng import SplitMix64

CATEGORIES = ("Person", "Entity", "Location")


@dataclass(frozen=True)
class Workload:
    """Parameters of one benchmark workload; README.md says why each exists."""

    name: str
    fmt: str  # "tgf" | "xgml"
    nodes: int
    edges: int
    skew: float  # see generate_world
    shares: tuple[float, float, float]  # Person, Entity, Location
    count_a: int
    count_b: int
    count_c: int
    max_edges: int
    require_unique: bool
    teams: int  # score calls per repetition: the oracle plus teams - 1 perturbed


WORKLOADS = {
    w.name: w
    for w in (
        Workload("world-large-xgml", "xgml", 2000, 4000, 0.0, (0.6, 0.25, 0.15),
                 100, 100, 4, 4, True, 1),
        Workload("paths-dense", "tgf", 300, 900, 0.2, (0.7, 0.2, 0.1),
                 4, 4, 40, 6, False, 1),
        Workload("referee-teams", "tgf", 500, 1500, 0.2, (0.6, 0.25, 0.15),
                 30, 30, 8, 5, False, 24),
    )
}


@dataclass(frozen=True)
class World:
    labels: tuple[str, ...]  # canonical node ids, index = node number
    edges: tuple[tuple[int, str, int], ...]  # (src, relation, dst) as stored


def load_inverse(ontology_text: str) -> dict[str, str]:
    """relation -> inverse, read from an ontology file."""
    inverse = {}
    for raw in ontology_text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            left, _, right = line.partition("|")
            r, i = " ".join(left.split()), " ".join(right.split())
            inverse[r], inverse[i] = i, r
    return inverse


def _apportion(weights: list[float], total: int) -> list[int]:
    """Integer shares of `total` proportional to `weights` (largest
    remainder, ties to the lower index)."""
    scale = total / sum(weights)
    raw = [w * scale for w in weights]
    out = [int(x) for x in raw]
    by_remainder = sorted(range(len(raw)), key=lambda i: (out[i] - raw[i], i))
    for i in by_remainder[: total - sum(out)]:
        out[i] += 1
    return out


def _link(left, right, rng, relations, linked, out) -> None:
    """Pair the stubs of `left` with those of `right` (or among themselves
    when `right` is None) into new links, re-pairing rejects a few times."""
    for _ in range(30):
        rng.shuffle(left)
        if right is None:
            pairs = list(zip(left[0::2], left[1::2]))
        else:
            rng.shuffle(right)
            pairs = list(zip(left, right))
        rejected = []
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if a == b or key in linked:
                rejected.append((a, b))
                continue
            linked.add(key)
            out.append((a, rng.choice(relations), b))
        if right is None:
            left = [n for pair in rejected for n in pair]
        else:
            left, right = [a for a, _ in rejected], [b for _, b in rejected]
        if len(left) < 2:
            return


def generate_world(
    seed: int,
    nodes: int,
    edges: int,
    skew: float,
    shares: tuple[float, float, float],
    relations: list[str],
) -> World:
    """A simple graph with a fixed degree sequence and seeded wiring.

    Half the links join two Persons, half join a Person to an Entity or
    Location; Entities and Locations never link to each other.  Every Person
    gets the same number of links of each kind, and the Entity/Location node
    at rank r gets a share (r + 1) ** -skew of theirs, so the hubs are places
    and things.  Fixing the degrees keeps the oracle's work per query alike
    from seed to seed, which a run-to-run comparison needs.  Stubs that still
    form a self-loop or a repeated pair after 30 shuffles are dropped, so a
    world can have a few links fewer than asked.
    """
    rng = SplitMix64(seed)
    counts = [int(share * nodes) for share in shares]
    counts[0] += nodes - sum(counts)
    categories = [c for c, n in zip(CATEGORIES, counts) for _ in range(n)]
    rng.shuffle(categories)
    serial = dict.fromkeys(CATEGORIES, 0)
    labels = []
    for category in categories:
        serial[category] += 1
        labels.append(f"{category}:{category[0]}{serial[category]:05d}")

    persons = [i for i, c in enumerate(categories) if c == "Person"]
    others = [i for i, c in enumerate(categories) if c != "Person"]
    person_links = edges // 2
    other_links = edges - person_links
    linked: set[tuple[int, int]] = set()
    out: list[tuple[int, str, int]] = []
    _link(
        [p for p, d in zip(persons, _apportion([1.0] * len(persons), other_links))
         for _ in range(d)],
        [o for o, d in zip(others, _apportion(
            [(r + 1) ** -skew for r in range(len(others))], other_links))
         for _ in range(d)],
        rng, relations, linked, out,
    )
    _link(
        [p for p, d in zip(persons, _apportion([1.0] * len(persons), 2 * person_links))
         for _ in range(d)],
        None, rng, relations, linked, out,
    )
    return World(tuple(labels), tuple(out))


def world_text(world: World, fmt: str) -> str:
    if fmt == "tgf":
        lines = [f"{i + 1} {label}" for i, label in enumerate(world.labels)]
        lines.append("#")
        lines += [f"{a + 1} {b + 1} {rel}" for a, rel, b in world.edges]
        return "\n".join(lines) + "\n"
    lines = ["graph [", "\tdirected 1"]
    for i, label in enumerate(world.labels):
        lines += ["\tnode [", f"\t\tid {i}", f'\t\tlabel "{label}"', "\t]"]
    for a, rel, b in world.edges:
        lines += [
            "\tedge [", f"\t\tsource {a}", f"\t\ttarget {b}", f'\t\tlabel "{rel}"', "\t]",
        ]
    lines.append("]")
    return "\n".join(lines) + "\n"
