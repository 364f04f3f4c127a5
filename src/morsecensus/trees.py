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
shape: `EncodedPair.stem` holds the string.

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
the second's; decode raises ValueError on every other pair, so it returns
exactly on the pairs p with encode(decode(p)) == p.  Every refusal in
this module is a plain ValueError, and its message names the fault.  The
text parsers check only the layout, a first line then lines of integers;
`encode` checks the tree, and `decode` the shape, the word and the labels.

Every walk over a tree or a shape (encoding, decoding, walk numbering,
reading the parenthesis text) runs on an explicit stack or queue or a
scan of the text, so no depth limit applies: a comb of any index
round-trips.

Brute-force enumeration of Morse trees sweeps the labels upward, the way
a height function passes its critical values, and keeps for every placed
vertex its open slots (the higher neighbors it still lacks) and its
component.  Label t is a minimum, which opens a disc and lacks 1; a
maximum on one lower neighbor, which caps a circle and lacks 0; a
splitting saddle on one lower neighbor, which lacks 2; or a joining
saddle on two lower neighbors in different components, which lacks 1.
The top label 2n+1 is a maximum on the last open slot.  Two prunes cut
dead branches without losing a tree: every label changes the open slots
by one, so a branch stops when they outnumber the labels left; and a
component with no open slot can never be joined, so a maximum may not
close one below the top label.  They also make every leaf a Morse tree,
with no test there: at the top label the first leaves at most one open
slot, and every component keeps one (a minimum opens one, a split or a
join keeps one, and the second prune stops a maximum from closing it),
so one slot is open, in the one component left.  A join links two
components, so no edge closes a cycle, and each type ends with one
neighbor, or three with a lower and a higher one.  The sweep is complete
and builds each tree once: read any Morse tree's labels upward, and each
label's type and lower neighbors are fixed by the tree, so the tree is
exactly one leaf of the search.  It returns a list, in build order.
"""
from __future__ import annotations

from collections import namedtuple

__all__ = [
    "MorseTree",
    "EncodedPair",
    "is_morse_tree",
    "enumerate_morse_trees",
    "encode",
    "decode",
    "tree_to_text",
    "tree_from_text",
    "pair_to_text",
    "pair_from_text",
]

MORSE_ENUM_BUDGET = 4


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


def _morse_adjacency(n: int, edges) -> tuple[list[list[int]], list[int], list[int]] | None:
    """(child lists, BFS order, parents) of vertices 0..2n+1 if the edges
    form a Morse tree, else None.

    Checks n >= 0, 2n+1 edges, labels in range, degrees 1 or 3, a lower
    and a higher neighbor at every node, and connectivity, which with 2n+1
    edges also rules out loops, duplicate edges and cycles.  The order is
    breadth-first from the leaf 0 (parent[0] is 0), and each list keeps
    the children only: the stem at 0, none at a leaf and two at a node.
    """
    m = 2 * n + 2
    if n < 0 or len(edges) != m - 1:
        return None
    adj: list[list[int]] = [[] for _ in range(m)]
    for a, b in edges:
        if not (0 <= a < m and 0 <= b < m):
            return None
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * m
    parent[0] = 0
    order = [0]
    for v in order:
        neighbors = adj[v]
        if len(neighbors) != 1 and (len(neighbors) != 3 or min(neighbors) > v or max(neighbors) < v):
            return None
        if v:
            neighbors.remove(parent[v])
        for w in neighbors:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return (adj, order, parent) if len(order) == m else None


def is_morse_tree(tree: MorseTree) -> bool:
    """True iff the candidate satisfies every Morse-tree condition.

    Malformed input (labels out of range, duplicate or loop edges, wrong
    edge count, disconnected) returns False rather than raising.
    """
    return _morse_adjacency(tree.n, tree.edges) is not None


def enumerate_morse_trees(n: int) -> list[MorseTree]:
    """All Morse trees of index n, by a sweep over the labels 0..2n+1.

    Each tree is built once, from its labels read upward (see the module
    docstring): 19 at n = 2, 428 at n = 3 and 17,746 at n = 4.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0; got n={n}")
    if n > MORSE_ENUM_BUDGET:
        raise ValueError(
            f"enumeration budget is n <= {MORSE_ENUM_BUDGET} "
            f"(the sweep builds every tree: 17,746 at n = 4, 1,178,792 at n = 5); got n={n}"
        )
    top = 2 * n + 1
    found: list[MorseTree] = []

    def sweep(t: int, slots: tuple, comp: tuple, edges: tuple) -> None:
        # slots[v]: the higher neighbors vertex v < t still lacks; comp[v]: its component
        if sum(slots) > top + 1 - t:  # prune: more open slots than labels left
            return
        if t == top:  # a maximum on the one open slot, which the prunes leave
            found.append(MorseTree(n, tuple(sorted(edges + ((slots.index(1), top),)))))
            return
        sweep(t + 1, slots + (1,), comp + (t,), edges)  # a minimum
        live = [v for v in range(t) if slots[v]]
        for i, v in enumerate(live):
            less = slots[:v] + (slots[v] - 1,) + slots[v + 1:]
            below = edges + ((v, t),)
            # a maximum; prune: it may not close its component below the top
            if any(less[w] for w in live if comp[w] == comp[v]):
                sweep(t + 1, less + (0,), comp + (comp[v],), below)
            sweep(t + 1, less + (2,), comp + (comp[v],), below)  # a splitting saddle
            for w in live[i + 1:]:
                if comp[w] != comp[v]:  # a joining saddle
                    merged = tuple(comp[v] if c == comp[w] else c for c in comp)
                    both = less[:w] + (less[w] - 1,) + less[w + 1:]
                    sweep(t + 1, both + (1,), merged + (comp[v],), below + ((w, t),))

    sweep(0, (), (), ())
    return found


# ---------------------------------------------------------------------------
# the injection


def _walk(stem: str) -> tuple[list[int], list[list[int]]]:
    """(parents, child lists) of walk numbers 0..2n+1 of a shape.

    Walk number i > 0 is the vertex opened by the i-th "(" of the stem
    text, and the planted root is 0 (parents[0] is 0).  The lists hold
    children only, first child first, as `_morse_adjacency` gives them to
    `encode`.  A malformed shape raises ValueError naming the position.
    """
    parents, kids = [0], [[]]
    up = 0  # the innermost open vertex
    for pos, char in enumerate(stem):
        if char == "(":
            if len(kids[up]) == 2:
                raise ValueError(f"a third child opens at position {pos} of the shape")
            kids[up].append(len(kids))
            parents.append(up)
            up = len(kids)
            kids.append([])
        elif char == ")" and up:
            if len(kids[up]) == 1:
                raise ValueError(f"the vertex closed at position {pos} of the shape has one child")
            up = parents[up]
            if not up:
                if pos + 1 < len(stem):
                    raise ValueError(f"trailing characters at position {pos + 1} of the shape")
                return parents, kids
        else:
            raise ValueError(f"unexpected {char!r} at position {pos} of the shape")
    raise ValueError("the shape ends before the stem vertex closes")


def encode(tree: MorseTree) -> EncodedPair:
    """Injective image of a valid Morse tree as an (PTPT, permutation) pair."""
    checked = _morse_adjacency(tree.n, tree.edges)
    if checked is None:
        raise ValueError("encode requires a valid Morse tree")
    adj, order, parent = checked
    low = list(range(len(adj)))  # subtree minima
    for v in reversed(order):
        up = parent[v]
        if low[v] < low[up]:
            low[up] = low[v]
    perm, parens = [], []
    stack = [order[1]]  # the stem: 0 is a leaf
    while stack:  # first-child-first preorder from the stem: the walk order
        v = stack.pop()
        if v < 0:  # both subtrees of a node are closed: close the node
            parens.append(")")
            continue
        perm.append(v)
        if not adj[v]:
            parens.append("()")
            continue
        parens.append("(")
        first, second = adj[v]
        if low[first] > low[second]:
            first, second = second, first
        stack += (-1, second, first)
    return EncodedPair("".join(parens), tuple(perm))


def decode(pair: EncodedPair) -> MorseTree:
    """Reconstruct the Morse tree from a pair in encode's image.

    The shape's root gets label 0 and every stem vertex the permutation
    image of its walk number.  The pair is in the image iff the result is
    a Morse tree whose every node has the lower subtree minimum in its
    first subtree.  Every other pair raises ValueError: a malformed shape
    before the word is read, then a word that is not a permutation, a
    labeled tree that is not a Morse tree, or a misordered node.

    Once the word is a permutation of 1..2n+1, the walk makes the result
    a tree on 0..2n+1 with 2n+1 distinct edges: the root and the leaves
    have one neighbor, and every other vertex three, its parent and its
    two children.  So no adjacency is built: one reverse pass over the
    walk meets each node with its parent and both children, checks what
    the labels decide, a lower and a higher neighbor at the node and the
    order of its two subtree minima, and emits the edges.  A failure of
    the Morse condition is reported in preference to one of the subtree
    order, and of those the one met first in the pass.
    """
    parents, kids = _walk(pair.stem)
    n = (len(parents) - 2) // 2
    if sorted(pair.perm) != list(range(1, 2 * n + 2)):
        raise ValueError("permutation is not a bijection on 1..2n+1")
    labels = (0, *pair.perm)
    low = list(labels)  # subtree minima, left stale at and above a misordered node
    edges = []
    misordered = None
    # a subtree's walk numbers follow its root's: this pass meets children first
    for number in range(len(labels) - 1, 0, -1):
        label, above = labels[number], labels[parents[number]]
        edges.append((above, label) if above < label else (label, above))
        if kids[number]:
            first, second = kids[number]
            # one or two of its three neighbors lie below it
            if (labels[first] < label) + (labels[second] < label) + (above < label) not in (1, 2):
                raise ValueError("pair decodes to an invalid labeled tree")
            least = low[first]
            if least > low[second]:
                misordered = misordered or (f"the first subtree under label {label} has minimum "
                                            f"{least}, above the second's {low[second]}")
            elif least < label:  # in order, the first subtree holds the lower minimum
                low[number] = least
    if misordered is not None:
        raise ValueError(misordered)
    edges.sort()
    return MorseTree(n, tuple(edges))


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
    perm = tuple(int(tok) for tok in lines[1][len("phi =") :].split())
    return EncodedPair(lines[0], perm)
