"""Morse trees, planted trivalent planar trees, and the injective encoding.

A Morse tree of index n is a labeled tree on vertices 0..2n+1 in which
every vertex has one or three neighbors, and every 3-valent vertex (a
node) has a neighbor with a higher label and a neighbor with a lower
label.  Consequences used throughout: 0 and 2n+1 sit on leaves, and there
are exactly n nodes and n+2 leaves.

A planted trivalent planar tree (PTPT) is a rooted ordered tree whose
root has exactly one child and whose other internal vertices have exactly
two ordered children; with 2n+2 vertices there are Catalan(n) of them.
Shapes are parenthesis strings: "()" is a leaf, "(" left right ")" an
internal vertex, and the planted root is implicit above the stem.  A
shape with n internal vertices is 4n+2 characters long.  No class wraps a
shape: `enumerate_ptpt` returns the strings, and `EncodedPair.stem` holds
one.

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
is the identity.  A pair is in the image iff the re-labeled shape is a
Morse tree and, at every node, the first child's subtree minimum is below
the second's; decode raises NotInImageError on every other pair, so it
returns exactly on the pairs p with encode(decode(p)) == p.

Every walk over a tree or a shape (encoding, decoding, walk numbering,
reading the parenthesis text) runs on an explicit stack or queue or a
scan of the text, so no depth limit applies: a comb of any index
round-trips.

Brute-force enumeration of Morse trees runs over degree-constrained
Pruefer sequences: a vertex of degree d appears d-1 times, so the valid
strings are exactly those in which some n labels appear twice each.
Those n labels are the nodes, and as 0 has no lower neighbor and 2n+1 no
higher one, they come from 1..2n: C(2n, n) (2n)!/2^n candidates, 1,800
at n = 3 and 176,400 at n = 4.
"""
from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from functools import lru_cache

from .exactmath import catalan

__all__ = [
    "MorseTree",
    "EncodedPair",
    "NotInImageError",
    "is_morse_tree",
    "enumerate_morse_trees",
    "enumerate_ptpt",
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


class MorseTree(namedtuple("MorseTree", "n edges")):
    """Labeled tree on vertices 0..2n+1; edges normalized (a < b, sorted).

    A tuple (n, edges): it unpacks, indexes and hashes as one, and compares
    equal to any tuple with the same fields, a bare tuple included.
    """

    __slots__ = ()

    @staticmethod
    def from_edges(n: int, edges) -> "MorseTree":
        normalized = tuple(sorted((a, b) if a < b else (b, a) for a, b in edges))
        return MorseTree(n, normalized)


class EncodedPair(namedtuple("EncodedPair", "stem perm")):
    """Image of a Morse tree: shape plus permutation in one-line word form.

    `stem` is the shape's parenthesis string; perm[i-1] is the Morse label
    of the vertex with walk number i.  A tuple (stem, perm), with
    MorseTree's tuple semantics.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# validation and brute-force enumeration


def _morse_adjacency(n: int, edges) -> list[list[int]] | None:
    """Neighbor lists of vertices 0..2n+1 if the edges form a Morse tree, else None.

    Checks n >= 0, 2n+1 edges, labels in range, no loop, degrees 1 or 3,
    a lower and a higher neighbor at every node, and connectivity, which
    with 2n+1 edges also rules out duplicate edges and cycles.
    """
    m = 2 * n + 2
    if n < 0 or len(edges) != m - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in edges:
        if not (0 <= a < m and 0 <= b < m) or a == b:
            return None
        adj[a].append(b)
        adj[b].append(a)
    for v, neighbors in enumerate(adj):
        if len(neighbors) != 1 and (len(neighbors) != 3 or min(neighbors) > v or max(neighbors) < v):
            return None
    reached = [False] * m
    reached[0] = True
    order = [0]
    for v in order:
        for w in adj[v]:
            if not reached[w]:
                reached[w] = True
                order.append(w)
    return adj if len(order) == m else None


def is_morse_tree(tree: MorseTree) -> bool:
    """True iff the candidate satisfies every Morse-tree condition.

    Malformed input (labels out of range, duplicate or loop edges, wrong
    edge count, disconnected) returns False rather than raising.
    """
    return _morse_adjacency(tree.n, tree.edges) is not None


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


def _prufer_to_edges(seq: list[int], m: int) -> list[tuple[int, int]]:
    """Decode a Pruefer sequence over labels 0..m-1 (length m-2) to normalized edges."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(m) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a, b = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((a, b))
    return edges


def enumerate_morse_trees(n: int) -> set[MorseTree]:
    """All Morse trees of index n, by exhaustive Pruefer enumeration.

    The candidates are the strings in which n labels from 1..2n appear
    twice each, C(2n, n) (2n)!/2^n of them (176,400 at n = 4).  A string
    whose doubled labels lack a lower or a higher neighbor in the decoded
    tree is dropped; every tree kept is validated in full.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > MORSE_ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget is n <= {MORSE_ENUM_BUDGET} "
            f"(the space grows like binom(2n,n)*(2n)!/2^n); got n={n}"
        )
    m = 2 * n + 2
    # the arrangements of n symbols twice each, shared by every choice of nodes
    patterns = list(_multiset_permutations(tuple(sorted(2 * list(range(n))))))
    found: set[MorseTree] = set()
    for nodes in itertools.combinations(range(1, m - 1), n):
        for pattern in patterns:
            edges = _prufer_to_edges([nodes[i] for i in pattern], m)
            lower_ends, upper_ends = zip(*edges)
            # every node must be an edge's upper end (a lower neighbor) and a lower end
            if not (set(upper_ends).issuperset(nodes) and set(lower_ends).issuperset(nodes)):
                continue
            tree = MorseTree.from_edges(n, edges)
            if is_morse_tree(tree):
                found.add(tree)
    return found


def enumerate_ptpt(n: int) -> list[str]:
    """The shape strings of all planted trivalent planar trees with 2n+2 vertices."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > PTPT_ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget is n <= {PTPT_ENUM_BUDGET} "
            f"(there are Catalan(n) shapes, Catalan({n}) = {catalan(n)}); got n={n}"
        )
    return _full_binary_shapes(n)


def _full_binary_shapes(internal: int) -> list[str]:
    if internal == 0:
        return ["()"]
    shapes = []
    for left_internal in range(internal):
        for left in _full_binary_shapes(left_internal):
            for right in _full_binary_shapes(internal - 1 - left_internal):
                shapes.append(f"({left}{right})")
    return shapes


# ---------------------------------------------------------------------------
# the injection


@lru_cache(maxsize=1)
def _walk(stem: str) -> tuple[tuple[int, int], ...]:
    """(parent walk number, side) for walk numbers 1..2n+1, in walk order.

    Entry i-1 belongs to walk number i, the vertex opened by the i-th "("
    of the stem text; the planted root is walk number 0 and the stem
    vertex its side-0 child.  Sides are 0 for the first child and 1 for
    the second.  A malformed shape raises ValueError naming the position.
    The last shape's walk is kept, so `decode` reuses the walk that
    `pair_from_text` made when it validated the same text.
    """
    walk: list[tuple[int, int]] = []
    path = [[0, 0]]  # the open vertices as [walk number, children so far], root first
    for pos, char in enumerate(stem):
        if char == "(":
            parent = path[-1]
            if parent[1] == 2:
                raise ValueError(f"a third child opens at position {pos} of the shape")
            walk.append((parent[0], parent[1]))
            parent[1] += 1
            path.append([len(walk), 0])
        elif char == ")" and len(path) > 1:
            if path.pop()[1] == 1:
                raise ValueError(f"the vertex closed at position {pos} of the shape has one child")
            if len(path) == 1:
                if pos + 1 < len(stem):
                    raise ValueError(f"trailing characters at position {pos + 1} of the shape")
                return tuple(walk)
        else:
            raise ValueError(f"unexpected {char!r} at position {pos} of the shape")
    raise ValueError("the shape ends before the stem vertex closes")


def encode(tree: MorseTree) -> EncodedPair:
    """Injective image of a valid Morse tree as an (PTPT, permutation) pair."""
    adj = _morse_adjacency(tree.n, tree.edges)
    if adj is None:
        raise ValueError("encode requires a valid Morse tree")
    parent = [0] * len(adj)  # parent[stem] is the root 0; the walk sets every other entry first
    order = [adj[0][0]]
    for v in order:  # breadth-first from the stem, so every vertex follows its parent
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    low = list(range(len(adj)))  # subtree minima
    for v in reversed(order):
        if low[v] < low[parent[v]]:
            low[parent[v]] = low[v]
    perm, parens = [], []
    stack = [order[0]]
    while stack:  # first-child-first preorder from the stem: the walk order
        v = stack.pop()
        if v < 0:  # both subtrees of a node are closed: close the node
            parens.append(")")
            continue
        perm.append(v)
        if len(adj[v]) == 1:
            parens.append("()")
            continue
        parens.append("(")
        first, second = [w for w in adj[v] if w != parent[v]]
        if low[first] > low[second]:
            first, second = second, first
        stack += (-1, second, first)
    return EncodedPair("".join(parens), tuple(perm))


def decode(pair: EncodedPair) -> MorseTree:
    """Reconstruct the Morse tree from a pair in encode's image.

    The shape's root gets label 0 and every stem vertex the permutation
    image of its walk number.  The pair is in the image iff the result is
    a Morse tree whose every node has the lower subtree minimum in its
    first subtree; any other pair raises NotInImageError.
    """
    walk = _walk(pair.stem)
    n = (len(walk) - 1) // 2
    if sorted(pair.perm) != list(range(1, 2 * n + 2)):
        raise NotInImageError("permutation is not a bijection on 1..2n+1")
    labels = (0, *pair.perm)
    edges = [(labels[parent], labels[number]) for number, (parent, _) in enumerate(walk, 1)]
    if _morse_adjacency(n, edges) is None:
        raise NotInImageError("pair decodes to an invalid labeled tree")
    low = list(labels)  # subtree minima, by walk number
    second_low = [0] * len(labels)
    # a subtree's walk numbers follow its root's, and a second subtree's
    # follow the first's, so this pass closes every subtree before its
    # parent and a node's second subtree before its first
    for number in range(len(walk), 0, -1):
        parent, side = walk[number - 1]
        if side:
            second_low[parent] = low[number]
        elif parent and low[number] > second_low[parent]:
            raise NotInImageError(
                f"the first subtree under label {labels[parent]} has minimum "
                f"{low[number]}, above the second's {second_low[parent]}")
        if low[number] < low[parent]:
            low[parent] = low[number]
    return MorseTree.from_edges(n, edges)


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


def pair_to_text(pair: EncodedPair) -> str:
    """Balanced-parenthesis stem encoding plus the permutation word."""
    word = " ".join(str(v) for v in pair.perm)
    return f"{pair.stem}\nphi = {word}\n"


def pair_from_text(text: str) -> EncodedPair:
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if len(lines) != 2 or not lines[1].startswith("phi ="):
        raise ValueError("pair text must be a shape line then a 'phi = ...' line")
    _walk(lines[0])  # raises on a malformed shape
    perm = tuple(int(tok) for tok in lines[1][len("phi =") :].split())
    return EncodedPair(lines[0], perm)
