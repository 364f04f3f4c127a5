"""Morse trees, planted trivalent planar trees, and the injective encoding.

A Morse tree of index n is a labeled tree on vertices 0..2n+1 in which
every vertex has one or three neighbors, and every 3-valent vertex (a
node) has a neighbor with a higher label and a neighbor with a lower
label.  Consequences used throughout: 0 and 2n+1 sit on leaves, and there
are exactly n nodes and n+2 leaves.

A planted trivalent planar tree (PTPT) is a rooted ordered tree whose
root has exactly one child and whose other internal vertices have exactly
two ordered children; with 2n+2 vertices there are Catalan(n) of them.
Shapes are nested pairs: () is a leaf, (left, right) an internal vertex,
and the planted root is implicit above the stem.

Every Morse tree maps injectively to a (PTPT, permutation) pair:

1. plant at vertex 0 (always a leaf) as the root;
2. at every node, order the two child subtrees by ascending minimum
   label (subtree minima are distinct, so this is total);
3. forget the labels: the shape alone is the PTPT;
4. read the boundary walk of the shape counterclockwise, realized as a
   first-child-first preorder from the stem, numbering non-root vertices
   1..2n+1 in first-encounter order; the permutation sends each walk
   number to the Morse label sitting at that vertex.

Decoding replays the walk and re-labels the shape, so decode(encode(t))
is the identity; pairs outside the image decode to an invalid labeled
tree and are rejected.

Every walk over a tree or a shape (encoding, decoding, walk numbering and
both directions of the parenthesis text) runs on an explicit stack or
queue, so no depth limit applies: a comb of any index round-trips.

Brute-force enumeration of Morse trees runs over degree-constrained
Pruefer sequences: a vertex of degree d appears d-1 times, so the valid
strings are exactly those in which some n labels appear twice each.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .exactmath import catalan

__all__ = [
    "MorseTree",
    "Ptpt",
    "EncodedPair",
    "NotInImageError",
    "is_morse_tree",
    "enumerate_morse_trees",
    "enumerate_ptpt",
    "walk_labels",
    "encode",
    "decode",
    "tree_to_text",
    "tree_from_text",
    "pair_to_text",
    "pair_from_text",
]

MORSE_ENUM_BUDGET = 4
PTPT_ENUM_BUDGET = 8


class NotInImageError(ValueError):
    """The pair is not the encoding of any Morse tree."""


@dataclass(frozen=True)
class MorseTree:
    """Labeled tree on vertices 0..2n+1; edges normalized (a < b, sorted)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "MorseTree":
        normalized = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
        return MorseTree(n, normalized)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(2 * self.n + 2)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


@dataclass(frozen=True)
class Ptpt:
    """Planted trivalent planar tree, held as its stem shape."""

    stem: tuple

    @property
    def n(self) -> int:
        return (len(_walk(self.stem)) - 1) // 2

    @property
    def vertex_count(self) -> int:
        return len(_walk(self.stem)) + 1  # stem plus the planted root


@dataclass(frozen=True)
class EncodedPair:
    """Image of a Morse tree: shape plus permutation in one-line word form.

    perm[i-1] is the Morse label of the vertex with walk number i.
    """

    ptpt: Ptpt
    perm: tuple[int, ...]


# ---------------------------------------------------------------------------
# validation and brute-force enumeration


def is_morse_tree(tree: MorseTree) -> bool:
    """True iff the candidate satisfies every Morse-tree condition.

    Malformed input (labels out of range, duplicate or loop edges, wrong
    edge count, disconnected) returns False rather than raising.
    """
    m = 2 * tree.n + 2
    if tree.n < 0 or len(tree.edges) != m - 1:
        return False
    seen = set()
    for a, b in tree.edges:
        if not (0 <= a < m and 0 <= b < m) or a == b or (a, b) in seen:
            return False
        seen.add((a, b))
    adj = tree.adjacency()
    # connectivity; with m-1 distinct edges this also rules out cycles
    stack, reached = [0], {0}
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != m:
        return False
    for v in range(m):
        neighbors = adj[v]
        if len(neighbors) == 1:
            continue
        if len(neighbors) != 3:
            return False
        if not any(w > v for w in neighbors) or not any(w < v for w in neighbors):
            return False
    return True


def _multiset_permutations(items: tuple[int, ...]):
    """Distinct permutations of a sorted tuple, in lexicographic order."""
    if not items:
        yield ()
        return
    prev = None
    for i, head in enumerate(items):
        if head == prev:
            continue
        prev = head
        for rest in _multiset_permutations(items[:i] + items[i + 1 :]):
            yield (head,) + rest


def _prufer_to_edges(seq: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence over labels 0..m-1 (length m-2) to tree edges."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return edges


def enumerate_morse_trees(n: int) -> set[MorseTree]:
    """All Morse trees of index n, by exhaustive Pruefer enumeration.

    Only sequences in which n chosen labels appear exactly twice can yield
    degree-1/3 trees, which cuts the n=4 space from ~10^8 raw strings to
    ~5*10^5.  Each decoded tree is validated in full.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MORSE_ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget is n <= {MORSE_ENUM_BUDGET} "
            f"(the space grows like binom(2n+2,n)*(2n)!/2^n); got n={n}"
        )
    m = 2 * n + 2
    found: set[MorseTree] = set()
    if n == 0:
        tree = MorseTree.from_edges(0, [(0, 1)])
        if is_morse_tree(tree):
            found.add(tree)
        return found
    for nodes in itertools.combinations(range(m), n):
        doubled = tuple(sorted(nodes + nodes))
        for seq in _multiset_permutations(doubled):
            tree = MorseTree.from_edges(n, _prufer_to_edges(seq, m))
            if is_morse_tree(tree):
                found.add(tree)
    return found


def enumerate_ptpt(n: int) -> list[Ptpt]:
    """All planted trivalent planar trees with 2n+2 vertices."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > PTPT_ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget is n <= {PTPT_ENUM_BUDGET} "
            f"(there are Catalan(n) shapes, Catalan({n}) = {catalan(n)}); got n={n}"
        )
    return [Ptpt(stem) for stem in _full_binary_shapes(n)]


def _full_binary_shapes(internal: int) -> list[tuple]:
    if internal == 0:
        return [()]
    shapes = []
    for left_internal in range(internal):
        for left in _full_binary_shapes(left_internal):
            for right in _full_binary_shapes(internal - 1 - left_internal):
                shapes.append((left, right))
    return shapes


# ---------------------------------------------------------------------------
# the injection


def _walk(stem: tuple) -> list[tuple[int, int]]:
    """(parent walk number, side) for walk numbers 1..2n+1, in walk order.

    Entry i-1 belongs to walk number i; the planted root is walk number 0
    and the stem vertex its side-0 child.  Sides are 0 for the first
    child and 1 for the second.
    """
    walk: list[tuple[int, int]] = []
    stack = [(stem, 0, 0)]
    while stack:
        shape, parent, side = stack.pop()
        walk.append((parent, side))
        if shape:
            number = len(walk)
            stack.append((shape[1], number, 1))
            stack.append((shape[0], number, 0))
    return walk


def walk_labels(p: Ptpt) -> dict[tuple[int, ...], int]:
    """Walk numbers 1..2n+1 for the stem vertices, keyed by path from the stem.

    The counterclockwise boundary walk first meets vertices in
    first-child-first preorder, which is what this returns.  Paths are
    tuples of 0/1 child choices; () is the stem vertex under the root.
    """
    paths: list[tuple[int, ...]] = [(), ()]  # the planted root, then the stem
    for parent, side in _walk(p.stem)[1:]:
        paths.append(paths[parent] + (side,))
    return {path: number for number, path in enumerate(paths[1:], 1)}


def encode(tree: MorseTree) -> EncodedPair:
    """Injective image of a valid Morse tree as an (PTPT, permutation) pair."""
    if not is_morse_tree(tree):
        raise ValueError("encode requires a valid Morse tree")
    adj = tree.adjacency()
    parent = [-1] * len(adj)
    order = [0]
    for v in order:  # breadth-first from 0, so every vertex follows its parent
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    low = list(range(len(adj)))  # subtree minima
    for v in reversed(order[1:]):
        low[parent[v]] = min(low[parent[v]], low[v])
    kids = {v: sorted((w for w in adj[v] if w != parent[v]), key=low.__getitem__) for v in order}
    perm = []
    stack = [adj[0][0]]
    while stack:  # first-child-first preorder from the stem: the walk order
        v = stack.pop()
        perm.append(v)
        stack.extend(reversed(kids[v]))
    shape_at: dict[int, tuple] = {}
    for v in reversed(perm):  # every child is shaped before its parent
        shape_at[v] = tuple(shape_at.pop(w) for w in kids[v])
    return EncodedPair(Ptpt(shape_at[perm[0]]), tuple(perm))


def decode(pair: EncodedPair) -> MorseTree:
    """Reconstruct the Morse tree from a pair in encode's image.

    The shape's root gets label 0 and every stem vertex the permutation
    image of its walk number; a reconstruction failing Morse validation
    means the pair was not in the image.
    """
    walk = _walk(pair.ptpt.stem)
    n = (len(walk) - 1) // 2
    if sorted(pair.perm) != list(range(1, 2 * n + 2)):
        raise NotInImageError("permutation is not a bijection on 1..2n+1")
    labels = (0, *pair.perm)
    edges = [(labels[parent], labels[number]) for number, (parent, _) in enumerate(walk, 1)]
    tree = MorseTree.from_edges(n, edges)
    if not is_morse_tree(tree):
        raise NotInImageError("pair decodes to an invalid labeled tree")
    return tree


# ---------------------------------------------------------------------------
# text formats


def tree_to_text(tree: MorseTree) -> str:
    """"n=<int>" then one sorted "a-b" line per edge."""
    lines = [f"n={tree.n}"]
    lines.extend(f"{a}-{b}" for a, b in sorted(tree.edges))
    return "\n".join(lines) + "\n"


def tree_from_text(text: str) -> MorseTree:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("tree text must start with an n=<int> line")
    n = int(lines[0][2:])
    edges = []
    for line in lines[1:]:
        a, _, b = line.partition("-")
        edges.append((int(a), int(b)))
    return MorseTree.from_edges(n, edges)


def _stem_to_parens(stem: tuple) -> str:
    out = []
    stack: list = [stem]
    while stack:
        shape = stack.pop()
        if shape is None:
            out.append(")")
        elif not shape:
            out.append("()")
        else:
            out.append("(")
            stack += (None, shape[1], shape[0])  # None closes the vertex
    return "".join(out)


def _stem_from_parens(text: str) -> tuple:
    """Parse a stem; "()" is a leaf and "(" left right ")" a node."""
    open_children: list[list[tuple]] = []  # one child list per open vertex
    for pos, char in enumerate(text):
        if char == "(":
            open_children.append([])
            continue
        if char != ")" or not open_children:
            raise ValueError(f"unexpected {char!r} at position {pos} of shape string")
        kids = open_children.pop()
        if len(kids) not in (0, 2):
            raise ValueError(f"expected 0 or 2 children in the vertex closed at position {pos}, "
                             f"found {len(kids)}")
        shape = tuple(kids)
        if not open_children:
            if pos + 1 < len(text):
                raise ValueError(f"trailing characters in shape string: {text[pos + 1:]!r}")
            return shape
        open_children[-1].append(shape)
    raise ValueError("shape string ends before the stem vertex closes")


def pair_to_text(pair: EncodedPair) -> str:
    """Balanced-parenthesis stem encoding plus the permutation word."""
    word = " ".join(str(v) for v in pair.perm)
    return f"{_stem_to_parens(pair.ptpt.stem)}\nphi = {word}\n"


def pair_from_text(text: str) -> EncodedPair:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2 or not lines[1].startswith("phi ="):
        raise ValueError("pair text must be a shape line then a 'phi = ...' line")
    stem = _stem_from_parens(lines[0])
    perm = tuple(int(tok) for tok in lines[1][len("phi =") :].split())
    return EncodedPair(Ptpt(stem), perm)
