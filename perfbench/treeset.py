"""Seeded sets of valid Morse trees for the tree-codec workload.

Shapes are planted full binary trees built iteratively (a comb of index
600 is far deeper than CPython's recursion limit).  Labels are a random
linear extension of the planted order: the root leaf gets 0 and every
vertex a label above its parent's, so each node has a lower neighbour
(its parent) and a higher one (its children), which makes every tree a
valid Morse tree.

Indices are drawn on a fixed grid with a small seeded jitter per grid
point, so that the work per set, and the number of combs too deep for
the recursive codec, are the same for every seed while the shapes and
labels differ.
"""
from __future__ import annotations

import random

# index grids; each balanced index is lowered by up to JITTER, each comb
# index by up to COMB_JITTER (a comb costs about n**2.7 to encode, so a
# wide comb jitter would make the work per set depend on the seed)
FULL = {"combs": (100, 160, 220, 280, 340, 400, 550, 600),
        "balanced": (24, 3, 500)}
TOY = {"combs": (20, 40, 60, 600),
       "balanced": (6, 3, 40)}
JITTER = 12
COMB_JITTER = 3


def _shape(rng: random.Random, n: int, comb: bool) -> dict[int, list[int]]:
    """Children lists of a planted tree with n internal nodes; vertex 0 is the root leaf."""
    children = {0: [1]}
    pending = [(1, n)]
    next_vertex = 2
    while pending:
        v, internal = pending.pop()
        if internal == 0:
            children[v] = []
            continue
        if comb:
            left = 0 if rng.random() < 0.5 else internal - 1
        else:
            left = min(max((internal - 1) // 2 + rng.randint(-1, 1), 0), internal - 1)
        a, b = next_vertex, next_vertex + 1
        next_vertex += 2
        children[v] = [a, b]
        pending.append((a, left))
        pending.append((b, internal - 1 - left))
    return children


def random_morse_tree(rng: random.Random, n: int, comb: bool):
    """Edges of a valid Morse tree of index n as ``(n, [(a, b), ...])``."""
    children = _shape(rng, n, comb)
    label = {0: 0}
    frontier = [1]
    while frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        v = frontier.pop()
        label[v] = len(label)
        frontier.extend(children[v])
    return n, [(label[p], label[c]) for p, kids in children.items() for c in kids]


def tree_set(seed: int, grid: dict) -> list[tuple[int, list[tuple[int, int]]]]:
    """Balanced and comb trees for one seed, in a seeded order."""
    rng = random.Random(seed)
    count, lo, hi = grid["balanced"]
    step = (hi - lo) / count
    specs = [(lo + int((k + 1) * step) - rng.randint(0, min(JITTER, int(step))), False)
             for k in range(count)]
    specs += [(n - rng.randint(0, COMB_JITTER), True) for n in grid["combs"]]
    rng.shuffle(specs)
    return [random_morse_tree(rng, n, comb) for n, comb in specs]
