import heapq
import itertools
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecensus import trees
from morsecensus.exactmath import catalan
from morsecensus.recurrence import extend_table
from morsecensus.series import morse_counts, ode_comparison_series
from morsecensus.trees import (
    EncodedPair,
    MorseTree,
    decode,
    encode,
    enumerate_morse_trees,
    is_morse_tree,
    pair_from_text,
    pair_to_text,
    tree_from_text,
    tree_to_text,
)

EDGE = MorseTree.from_edges(0, [(0, 1)])
STAR_AT_1 = MorseTree.from_edges(1, [(1, 0), (1, 2), (1, 3)])
STAR_AT_2 = MorseTree.from_edges(1, [(2, 0), (2, 1), (2, 3)])
COMB_INDEX = 1200  # deeper than CPython's default recursion limit
# the three faults that put a pair with a well-formed shape outside the image;
# decode reports a malformed shape with another message
IMAGE_FAULT = re.compile(r"permutation is not a bijection on 1\.\.2n\+1"
                         r"|vertex \d+ is neither a leaf nor a node with a lower and a higher neighbor"
                         r"|the first subtree under label \d+ has minimum \d+, above the second's \d+")


def comb(n: int) -> MorseTree:
    """Spine nodes 1..n under the root 0, spine end n+1, node i's leaf n+1+i."""
    edges = [(0, 1)]
    for i in range(1, n + 1):
        edges += [(i, i + 1), (i, n + 1 + i)]
    return MorseTree.from_edges(n, edges)


def scrambled(tree: MorseTree, rng: random.Random) -> MorseTree:
    """The same tree as a raw MorseTree: edges shuffled, each flipped at random."""
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in tree.edges]
    rng.shuffle(edges)
    return MorseTree(tree.n, tuple(edges))


ROUND_TRIP = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def morse_trees(draw, max_n: int = 499):
    """A drawn planted shape labeled by a random linear extension of it.

    Every node's parent is lower and its children higher, so each tree is
    a valid Morse tree; max_n = 499 allows up to 1000 vertices.
    """
    n = draw(st.integers(0, max_n))
    lean = draw(st.sampled_from((0.0, 0.5, 1.0)))  # share of one-sided splits; 1.0 is a comb
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    children = {0: [1]}  # vertex 0 is the root leaf, vertex 1 the stem vertex
    pending = [(1, n)]
    size = 2
    while pending:
        v, internal = pending.pop()
        if internal == 0:
            children[v] = []
            continue
        if rng.random() < lean:
            left = rng.choice((0, internal - 1))
        else:
            left = rng.randrange(internal)
        children[v] = [size, size + 1]
        pending += [(size, left), (size + 1, internal - 1 - left)]
        size += 2
    label = {0: 0}
    frontier = [1]
    while frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        label[v] = len(label)
        frontier += children[v]
    return MorseTree.from_edges(n, [(label[v], label[w]) for v in children for w in children[v]])


# ---------------------------------------------------------------------------
# references: the unpruned enumerator, validator and encoder


def reference_is_morse_tree(tree: MorseTree) -> bool:
    """Every Morse-tree condition, checked on a dict adjacency."""
    m = 2 * tree.n + 2
    if tree.n < 0 or len(tree.edges) != m - 1:
        return False
    seen = set()
    for a, b in tree.edges:
        if not (0 <= a < m and 0 <= b < m) or a == b or (a, b) in seen:
            return False
        seen.add((a, b))
    adj = {v: [] for v in range(m)}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
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


def reference_multiset_permutations(items):
    if not items:
        yield ()
        return
    prev = None
    for i, head in enumerate(items):
        if head == prev:
            continue
        prev = head
        for rest in reference_multiset_permutations(items[:i] + items[i + 1 :]):
            yield (head,) + rest


def reference_prufer_to_edges(seq, m):
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


def reference_enumerate_morse_trees(n: int) -> set:
    """Every Pruefer string in which n labels of 0..2n+1 appear twice, each validated in full."""
    m = 2 * n + 2
    found = set()
    for nodes in itertools.combinations(range(m), n):
        for seq in reference_multiset_permutations(tuple(sorted(nodes + nodes))):
            tree = MorseTree.from_edges(n, reference_prufer_to_edges(seq, m))
            if reference_is_morse_tree(tree):
                found.add(tree)
    return found


def reference_encode(tree: MorseTree) -> EncodedPair:
    """Breadth-first parents, subtree minima, children sorted by minimum, preorder walk."""
    if not reference_is_morse_tree(tree):
        raise ValueError("encode requires a valid Morse tree")
    adj = {v: [] for v in range(2 * tree.n + 2)}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-1] * len(adj)
    order = [0]
    for v in order:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                order.append(w)
    low = list(range(len(adj)))
    for v in reversed(order[1:]):
        low[parent[v]] = min(low[parent[v]], low[v])
    kids = {v: sorted((w for w in adj[v] if w != parent[v]), key=low.__getitem__) for v in order}
    perm, parens = [], []
    stack = [adj[0][0]]
    while stack:
        v = stack.pop()
        if v is None:
            parens.append(")")
            continue
        perm.append(v)
        parens.append("(")
        stack.append(None)
        stack.extend(reversed(kids[v]))
    return EncodedPair("".join(parens), tuple(perm))


def reference_parents(stem: str) -> list:
    """The parent of each walk number of a valid shape; the root 0 has None."""
    parent, stack = [None], [0]
    for char in stem:  # "(" opens the next walk number
        if char == "(":
            parent.append(stack[-1])
            stack.append(len(parent) - 1)
        else:
            stack.pop()
    return parent


def reference_decode(pair: EncodedPair) -> MorseTree:
    """Label the parsed shape, then check every node from the one opened last.

    The first fault met is reported, a node's Morse condition before its
    subtree order; a pair with no fault must label a tree that passes the
    whole-tree check.
    """
    parent = reference_parents(pair.stem)
    n = (len(parent) - 2) // 2
    if sorted(pair.perm) != list(range(1, 2 * n + 2)):
        raise ValueError("permutation is not a bijection on 1..2n+1")
    labels = (0, *pair.perm)
    tree = MorseTree.from_edges(n, [(labels[parent[v]], labels[v]) for v in range(1, len(parent))])
    kids = {v: [w for w in range(1, len(parent)) if parent[w] == v] for v in range(len(parent))}
    low = list(labels)
    for v in reversed(range(len(parent))):
        low[v] = min([labels[v]] + [low[w] for w in kids[v]])
    for v in reversed(range(1, len(parent))):
        if len(kids[v]) == 2:
            first, second = kids[v]  # the first child opens first
            near = [labels[parent[v]], labels[first], labels[second]]
            if not min(near) < labels[v] < max(near):
                raise ValueError(f"vertex {labels[v]} is neither a leaf nor a node "
                                 "with a lower and a higher neighbor")
            if low[first] > low[second]:
                raise ValueError(
                    f"the first subtree under label {labels[v]} has minimum "
                    f"{low[first]}, above the second's {low[second]}")
    if not reference_is_morse_tree(tree):
        raise ValueError("no node fault, yet the labeled tree is not a Morse tree")
    return tree


@st.composite
def labeled_shapes(draw):
    """A drawn shape with a random word on 1..2n+1, or a tree's own word with two labels swapped."""
    tree = draw(morse_trees(max_n=60))
    stem, perm = encode(tree)
    if draw(st.booleans()):
        return EncodedPair(stem, tuple(draw(st.permutations(perm))))
    i, j = draw(st.integers(0, len(perm) - 1)), draw(st.integers(0, len(perm) - 1))
    word = list(perm)
    word[i], word[j] = word[j], word[i]
    return EncodedPair(stem, tuple(word))


@st.composite
def malformed_edge_tuples(draw):
    """A small Morse tree's edges, some flipped and shuffled, then one defect or none.

    Defects: a duplicate in either orientation, a loop, an out-of-range
    label, an edge too many or too few, a negative n.
    """
    tree = draw(morse_trees(max_n=3))
    n, m = tree.n, 2 * tree.n + 2
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in tree.edges]
    edges = draw(st.permutations(edges))
    defect = draw(st.sampled_from(
        ("none", "duplicate", "flipped-duplicate", "loop", "out-of-range", "extra", "missing", "negative-n")))
    i = draw(st.integers(0, len(edges) - 1))
    a, b = edges[i]
    if defect in ("duplicate", "flipped-duplicate"):  # in place of another edge
        edges[(i + 1) % len(edges)] = (a, b) if defect == "duplicate" else (b, a)
    elif defect == "loop":
        edges[i] = (a, a)
    elif defect == "out-of-range":
        bad = draw(st.sampled_from((-1, m, m + 5)))
        edges[i] = (bad, b) if draw(st.booleans()) else (a, bad)
    elif defect == "extra":
        edges.append((draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))))
    elif defect == "missing":
        del edges[i]
    elif defect == "negative-n":
        n = draw(st.integers(-3, -1))
    return MorseTree(n, tuple(edges))


class TestValidation:
    def test_single_edge_valid(self):
        assert is_morse_tree(EDGE)

    def test_star_centered_at_zero_invalid(self):
        # the center has no lower-labeled neighbor
        assert not is_morse_tree(MorseTree.from_edges(1, [(0, 1), (0, 2), (0, 3)]))

    def test_star_centered_at_top_invalid(self):
        assert not is_morse_tree(MorseTree.from_edges(1, [(3, 0), (3, 1), (3, 2)]))

    def test_stars_centered_inside_valid(self):
        assert is_morse_tree(STAR_AT_1)
        assert is_morse_tree(STAR_AT_2)

    def test_malformed_inputs_return_false(self):
        assert not is_morse_tree(MorseTree(1, ((0, 1), (2, 3), (1, 2), (0, 3))))  # edge count
        assert not is_morse_tree(MorseTree(1, ((0, 1), (0, 1), (2, 3))))  # duplicate edge
        assert not is_morse_tree(MorseTree(1, ((0, 1), (1, 2), (3, 9))))  # label range
        assert not is_morse_tree(MorseTree(1, ((0, 1), (1, 2), (-1, 1))))  # -1 would index vertex 3
        assert not is_morse_tree(MorseTree(1, ((0, 1), (1, 1), (2, 3))))  # loop
        assert not is_morse_tree(MorseTree(1, ((0, 1), (1, 2), (0, 2))))  # cycle, 3 isolated
        # degrees 1 and 3 and every node condition hold, but 0-7 is cut off
        # from the triangle 2-3-4 and its leaves 1, 5, 6
        assert not is_morse_tree(MorseTree(3, ((0, 7), (1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 6))))

    def test_path_of_degree_two_invalid(self):
        assert not is_morse_tree(MorseTree.from_edges(1, [(0, 1), (1, 2), (2, 3)]))

    @ROUND_TRIP
    @given(malformed_edge_tuples())
    def test_matches_reference_on_malformed_edges(self, tree):
        assert is_morse_tree(tree) == reference_is_morse_tree(tree)


class TestEnumeration:
    def test_index_zero(self):
        assert set(enumerate_morse_trees(0)) == {EDGE}

    def test_index_one_is_the_two_stars(self):
        assert set(enumerate_morse_trees(1)) == {STAR_AT_1, STAR_AT_2}

    def test_index_two_count(self):
        assert len(enumerate_morse_trees(2)) == 19

    def test_counts_match_recurrence(self):
        table = extend_table(None, 6)
        for n in range(4):
            assert len(enumerate_morse_trees(n)) == table.morse_count(n)

    def test_index_four_matches_recurrence(self):
        count = len(enumerate_morse_trees(4))
        assert count == extend_table(None, 8).morse_count(4)
        assert count == morse_counts(4)[4] == 17746

    def test_sets_match_reference(self):
        for n in range(4):
            assert set(enumerate_morse_trees(n)) == reference_enumerate_morse_trees(n)

    def test_no_tree_is_built_twice(self):
        # the list is the sweep's own: no set hides a tree that it builds twice
        for n in range(5):
            found = enumerate_morse_trees(n)
            assert len(found) == len(set(found))

    def test_index_four_trees_are_valid(self):
        # the sweep builds its trees without validating them
        found = enumerate_morse_trees(4)
        assert all(type(tree) is MorseTree and is_morse_tree(tree) for tree in found)

    def test_one_minimum_family_is_the_tangent_numbers(self):
        # 2^n times the trees with one minimum is the tangent number a_n of the
        # lower bound that `verify bounds` checks, and k and n+2-k minima are
        # equally many (at n = 4: 496, 4288, 8178, 4288, 496)
        tangent = ode_comparison_series(4)
        for n in range(5):
            minima = [0] * (n + 2)
            for tree in enumerate_morse_trees(n):
                degree = Counter(v for edge in tree.edges for v in edge)
                # a minimum is a leaf whose one neighbor is higher: the low end of its edge
                minima[sum(1 for low, _ in tree.edges if degree[low] == 1)] += 1
            assert minima[0] == 0
            assert 2 ** n * minima[1] == tangent[n]
            assert minima[1:] == minima[:0:-1]

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            enumerate_morse_trees(5)

    def test_structural_consequences(self):
        for n in range(3):
            for tree in enumerate_morse_trees(n):
                degree = {}
                for a, b in tree.edges:
                    degree[a] = degree.get(a, 0) + 1
                    degree[b] = degree.get(b, 0) + 1
                assert degree[0] == 1
                assert degree[2 * n + 1] == 1
                assert sum(1 for d in degree.values() if d == 3) == n
                assert sum(1 for d in degree.values() if d == 1) == n + 2


class TestPtpt:
    def test_counts_are_catalan(self, planted_shapes):
        for n in range(9):
            shapes = planted_shapes(n)
            assert len(shapes) == len(set(shapes)) == catalan(n)



class TestEncodeDecode:
    def test_trivial_tree(self):
        pair = encode(EDGE)
        assert pair == EncodedPair("()", (1,))
        assert decode(pair) == EDGE

    def test_codec_returns_its_own_types(self):
        # both are tuples and compare equal to a bare tuple of their fields,
        # so == alone would not catch a plain tuple returned by mistake
        pair = encode(STAR_AT_2)
        assert type(pair) is EncodedPair
        assert type(pair_from_text(pair_to_text(pair))) is EncodedPair
        assert type(decode(pair)) is MorseTree
        assert type(tree_from_text(tree_to_text(STAR_AT_2))) is MorseTree

    def test_star_at_one_gets_identity_word(self):
        pair = encode(STAR_AT_1)
        assert pair.stem == "(()())"
        assert pair.perm == (1, 2, 3)

    def test_star_at_two_swaps_first_two(self):
        # child subtrees {1} and {3} order as 1 before 3
        pair = encode(STAR_AT_2)
        assert pair.stem == "(()())"
        assert pair.perm == (2, 1, 3)

    def test_round_trip_identity_small_indices(self):
        for n in range(3):
            for tree in enumerate_morse_trees(n):
                assert decode(encode(tree)) == tree

    def test_encode_ignores_edge_order(self):
        # a node's parent may come first, second or third among its neighbors
        rng = random.Random(7)
        for tree in enumerate_morse_trees(3):
            for _ in range(3):
                assert encode(scrambled(tree, rng)) == encode(tree)

    def test_injective_on_small_indices(self):
        for n in range(3):
            trees = enumerate_morse_trees(n)
            assert len({encode(t) for t in trees}) == len(trees)

    def test_encode_rejects_invalid_tree(self):
        with pytest.raises(ValueError, match="^vertex 1 is neither a leaf nor a node "):
            encode(MorseTree.from_edges(1, [(0, 1), (1, 2), (2, 3)]))

    def test_decode_rejects_non_bijection(self):
        with pytest.raises(ValueError, match=r"^permutation is not a bijection on 1\.\.2n\+1$"):
            decode(EncodedPair("(()())", (1, 1, 3)))

    @pytest.mark.parametrize("word", [(1, 2, 4), (0, 1, 2), (1, 2), (1, 2, 3, 4)],
                             ids=["gap", "zero", "short", "long"])
    def test_decode_rejects_word_off_the_labels(self, word):
        # distinct values, but not the labels 1..3 of the shape's stem vertices
        with pytest.raises(ValueError, match=r"^permutation is not a bijection on 1\.\.2n\+1$"):
            decode(EncodedPair("(()())", word))

    def test_decode_rejects_pair_outside_image(self):
        # top label at the node: the decoded tree has no higher neighbor there
        with pytest.raises(ValueError, match="^vertex 3 is neither a leaf nor a node "
                                             "with a lower and a higher neighbor$"):
            decode(EncodedPair("(()())", (3, 1, 2)))

    def test_decode_rejects_subtrees_out_of_order(self):
        # a Morse tree once decoded, but the first subtree under 1 has minimum 5, the second 2
        with pytest.raises(ValueError, match="^the first subtree under label 1 has minimum 5, "
                                             "above the second's 2$"):
            decode(EncodedPair("(()(()()))", (1, 5, 2, 3, 4)))

    def test_decode_accepts_exactly_the_image(self, planted_shapes):
        # every (shape, permutation) pair: a pair decodes iff it encodes an enumerated
        # tree, and every other pair is refused for one of the three image faults
        for n, count in enumerate((1, 2, 19, 428)):
            image = {encode(t) for t in enumerate_morse_trees(n)}
            decoded = set()
            for stem in planted_shapes(n):
                for perm in itertools.permutations(range(1, 2 * n + 2)):
                    pair = EncodedPair(stem, perm)
                    try:
                        tree = decode(pair)
                    except ValueError as exc:
                        assert IMAGE_FAULT.fullmatch(str(exc)), exc
                        continue
                    assert encode(tree) == pair
                    decoded.add(pair)
            assert decoded == image and len(image) == count

    def test_decode_names_a_node_fault_as_encode_does(self, planted_shapes):
        # every pair whose labeled tree has one node without a lower and a
        # higher neighbor, and no misordered node after it in walk order, so
        # that the node is the first fault met: decode refuses the pair in
        # encode's words for the labeled edge list
        same = 0
        for n in range(4):
            for stem in planted_shapes(n):
                parent = reference_parents(stem)
                for perm in itertools.permutations(range(1, 2 * n + 2)):
                    labels = (0, *perm)
                    edges = [(labels[parent[v]], labels[v]) for v in range(1, len(parent))]
                    near = {v: [] for v in labels}
                    for a, b in edges:
                        near[a].append(b)
                        near[b].append(a)
                    nodes = [v for v, ws in near.items() if len(ws) == 3 and not min(ws) < v < max(ws)]
                    if len(nodes) != 1:
                        continue
                    pair = EncodedPair(stem, perm)
                    with pytest.raises(ValueError) as first:
                        reference_decode(pair)
                    if not str(first.value).startswith("vertex "):
                        continue  # a misordered node comes first
                    with pytest.raises(ValueError) as decoded:
                        decode(pair)
                    with pytest.raises(ValueError) as encoded:
                        encode(MorseTree.from_edges(n, edges))
                    assert str(decoded.value) == str(encoded.value)
                    same += 1
        assert same == 7668


class TestTextFormats:
    def test_tree_golden(self):
        assert tree_to_text(STAR_AT_2) == "n=1\n0-2\n1-2\n2-3\n"

    def test_tree_round_trip(self):
        for n in range(3):
            for tree in enumerate_morse_trees(n):
                assert tree_from_text(tree_to_text(tree)) == tree

    def test_pair_golden(self):
        assert pair_to_text(encode(STAR_AT_2)) == "(()())\nphi = 2 1 3\n"

    def test_pair_round_trip(self):
        for n in range(3):
            for tree in enumerate_morse_trees(n):
                pair = encode(tree)
                assert pair_from_text(pair_to_text(pair)) == pair

    def test_bad_tree_text(self):
        with pytest.raises(ValueError):
            tree_from_text("0-1\n")

    @pytest.mark.parametrize("text, message", [
        pytest.param("(()())\n", "pair text must be a shape line then a 'phi = ...' line",
                     id="no-phi-line"),
        pytest.param("(()())\nphi = 1 2 3\n(()())\n",
                     "pair text must be a shape line then a 'phi = ...' line", id="third-line"),
        pytest.param("(()()\nphi = 1 2 3\n", "the shape ends before the stem vertex closes",
                     id="unclosed"),
        pytest.param("()()\nphi = 1 2 3\n", "trailing characters at position 2 of the shape",
                     id="two-stems"),
        pytest.param("(()()())\nphi = 1 2 3\n", "a third child opens at position 5 of the shape",
                     id="three-children"),
        pytest.param("(())\nphi = 1 2 3\n", "the vertex closed at position 3 of the shape has one child",
                     id="one-child"),
        pytest.param("(()())x\nphi = 1 2 3\n", "trailing characters at position 6 of the shape",
                     id="trailing-character"),
        pytest.param(")\nphi = 1 2 3\n", "unexpected ')' at position 0 of the shape",
                     id="stray-close"),
    ])
    def test_bad_pair_text(self, text, message):
        # pair_from_text checks the layout, and decode the shape
        with pytest.raises(ValueError) as raised:
            decode(pair_from_text(text))
        assert type(raised.value) is ValueError and str(raised.value) == message

    def test_decode_rejects_exactly_the_non_shapes(self, planted_shapes):
        # every string over "()" of length 4n+2 passes the text parser, and
        # decode finds a fault in the shape exactly when it is not one of
        # the Catalan(n) shapes
        for n in range(4):
            shapes = set(planted_shapes(n))
            accepted = set()
            word = " ".join(map(str, range(1, 2 * n + 2)))
            for chars in itertools.product("()", repeat=4 * n + 2):
                stem = "".join(chars)
                pair = pair_from_text(f"{stem}\nphi = {word}\n")
                assert pair.stem == stem
                try:
                    decode(pair)  # labeled in walk order, every shape decodes
                except ValueError as exc:
                    assert stem not in shapes
                    assert "position" in str(exc) or "ends before" in str(exc)
                else:
                    accepted.add(stem)
            assert accepted == shapes and len(shapes) == catalan(n)


class TestNoDepthLimit:
    def test_comb_round_trips(self):
        assert COMB_INDEX > sys.getrecursionlimit()
        tree = comb(COMB_INDEX)
        pair = encode(tree)
        text = pair_to_text(pair)
        # the first child of spine node i is node i+1 (subtree minimum i+1)
        spine_end = COMB_INDEX + 1
        word = list(range(1, spine_end + 1)) + list(range(2 * COMB_INDEX + 1, spine_end, -1))
        assert text == "(" * COMB_INDEX + "()" + "())" * COMB_INDEX + "\nphi = " + (
            " ".join(map(str, word)) + "\n")
        back = pair_from_text(text)
        assert back == pair
        assert len({pair, back}) == 1
        assert pair_to_text(back) == text
        assert decode(back) == tree


class TestRoundTripProperties:
    @ROUND_TRIP
    @given(morse_trees())
    def test_encode_matches_reference(self, tree):
        assert encode(tree) == reference_encode(tree)

    @ROUND_TRIP
    @given(morse_trees(), st.integers(0, 2**32 - 1))
    def test_encode_ignores_edge_order(self, tree, seed):
        assert encode(scrambled(tree, random.Random(seed))) == encode(tree)

    @ROUND_TRIP
    @given(morse_trees())
    def test_decode_inverts_encode(self, tree):
        assert decode(encode(tree)) == tree

    @ROUND_TRIP
    @given(labeled_shapes())
    def test_decode_matches_reference(self, pair):
        try:
            expected = reference_decode(pair)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                decode(pair)
            assert str(raised.value) == str(exc)
        else:
            assert decode(pair) == expected

    def test_decode_does_not_rebuild_the_adjacency(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("decode called _morse_adjacency")

        pairs = [encode(t) for t in enumerate_morse_trees(2)] + [
            EncodedPair("(()())", (3, 1, 2)), EncodedPair("(()(()()))", (1, 5, 2, 3, 4))]
        monkeypatch.setattr(trees, "_morse_adjacency", refuse)
        for pair in pairs:
            try:
                decode(pair)
            except ValueError as exc:
                assert IMAGE_FAULT.fullmatch(str(exc)), exc

    @ROUND_TRIP
    @given(morse_trees())
    def test_pair_text_round_trip(self, tree):
        pair = encode(tree)
        assert pair_from_text(pair_to_text(pair)) == pair

    @ROUND_TRIP
    @given(morse_trees())
    def test_tree_text_round_trip(self, tree):
        assert tree_from_text(tree_to_text(tree)) == tree
