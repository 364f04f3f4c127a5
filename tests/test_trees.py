import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsecensus.exactmath import catalan
from morsecensus.recurrence import build_table
from morsecensus.trees import (
    EncodedPair,
    MorseTree,
    NotInImageError,
    Ptpt,
    decode,
    encode,
    enumerate_morse_trees,
    enumerate_ptpt,
    is_morse_tree,
    pair_from_text,
    pair_to_text,
    tree_from_text,
    tree_to_text,
    walk_labels,
)

EDGE = MorseTree.from_edges(0, [(0, 1)])
STAR_AT_1 = MorseTree.from_edges(1, [(1, 0), (1, 2), (1, 3)])
STAR_AT_2 = MorseTree.from_edges(1, [(2, 0), (2, 1), (2, 3)])
COMB_INDEX = 1200  # deeper than CPython's default recursion limit


def comb(n: int) -> MorseTree:
    """Spine nodes 1..n under the root 0, spine end n+1, node i's leaf n+1+i."""
    edges = [(0, 1)]
    for i in range(1, n + 1):
        edges += [(i, i + 1), (i, n + 1 + i)]
    return MorseTree.from_edges(n, edges)


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
        assert not is_morse_tree(MorseTree(1, ((0, 1), (1, 1), (2, 3))))  # loop
        assert not is_morse_tree(MorseTree(1, ((0, 1), (1, 2), (0, 2))))  # cycle, 3 isolated

    def test_path_of_degree_two_invalid(self):
        assert not is_morse_tree(MorseTree.from_edges(1, [(0, 1), (1, 2), (2, 3)]))


class TestEnumeration:
    def test_index_zero(self):
        assert enumerate_morse_trees(0) == {EDGE}

    def test_index_one_is_the_two_stars(self):
        assert enumerate_morse_trees(1) == {STAR_AT_1, STAR_AT_2}

    def test_index_two_count(self):
        assert len(enumerate_morse_trees(2)) == 19

    def test_counts_match_recurrence(self):
        table = build_table(6)
        for n in range(4):
            assert len(enumerate_morse_trees(n)) == table.morse_count(n)

    @pytest.mark.skipif(
        os.environ.get("MORSECENSUS_EXTENDED") != "1",
        reason="n=4 sweeps ~5*10^5 sequences; enable with MORSECENSUS_EXTENDED=1",
    )
    def test_index_four_matches_recurrence(self):
        table = build_table(8)
        assert len(enumerate_morse_trees(4)) == table.morse_count(4)

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
    def test_counts_are_catalan(self):
        for n in range(9):
            shapes = enumerate_ptpt(n)
            assert len(shapes) == len(set(shapes)) == catalan(n)

    def test_budget_refusal(self):
        with pytest.raises(ValueError, match="budget"):
            enumerate_ptpt(9)

    def test_vertex_counts(self):
        for n in range(5):
            for p in enumerate_ptpt(n):
                assert p.vertex_count == 2 * n + 2
                assert p.n == n


class TestWalkLabels:
    def test_trivial_shape(self):
        labels = walk_labels(Ptpt(()))
        assert labels == {(): 1}

    def test_single_node_shape(self):
        labels = walk_labels(Ptpt(((), ())))
        assert labels == {(): 1, (0,): 2, (1,): 3}

    def test_labels_are_a_bijection(self):
        for n in range(6):
            for p in enumerate_ptpt(n):
                labels = walk_labels(p)
                assert sorted(labels.values()) == list(range(1, 2 * n + 2))


class TestEncodeDecode:
    def test_trivial_tree(self):
        pair = encode(EDGE)
        assert pair == EncodedPair(Ptpt(()), (1,))
        assert decode(pair) == EDGE

    def test_star_at_one_gets_identity_word(self):
        pair = encode(STAR_AT_1)
        assert pair.ptpt == Ptpt(((), ()))
        assert pair.perm == (1, 2, 3)

    def test_star_at_two_swaps_first_two(self):
        # child subtrees {1} and {3} order as 1 before 3
        pair = encode(STAR_AT_2)
        assert pair.ptpt == Ptpt(((), ()))
        assert pair.perm == (2, 1, 3)

    def test_round_trip_identity_small_indices(self):
        for n in range(3):
            for tree in enumerate_morse_trees(n):
                assert decode(encode(tree)) == tree

    def test_injective_on_small_indices(self):
        for n in range(3):
            trees = enumerate_morse_trees(n)
            assert len({encode(t) for t in trees}) == len(trees)

    def test_encode_rejects_invalid_tree(self):
        with pytest.raises(ValueError):
            encode(MorseTree.from_edges(1, [(0, 1), (1, 2), (2, 3)]))

    def test_decode_rejects_non_bijection(self):
        with pytest.raises(NotInImageError):
            decode(EncodedPair(Ptpt(((), ())), (1, 1, 3)))

    def test_decode_rejects_pair_outside_image(self):
        # top label at the node: the decoded tree has no higher neighbor there
        with pytest.raises(NotInImageError):
            decode(EncodedPair(Ptpt(((), ())), (3, 1, 2)))


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

    @pytest.mark.parametrize("text", [
        pytest.param("(()())\n", id="no-phi-line"),
        pytest.param("(()()\nphi = 1 2 3\n", id="unclosed"),
        pytest.param("()()\nphi = 1 2 3\n", id="two-stems"),
        pytest.param("(()()())\nphi = 1 2 3\n", id="three-children"),
        pytest.param("(())\nphi = 1 2 3\n", id="one-child"),
        pytest.param("(()())x\nphi = 1 2 3\n", id="trailing-character"),
        pytest.param(")\nphi = 1 2 3\n", id="stray-close"),
    ])
    def test_bad_pair_text(self, text):
        with pytest.raises(ValueError):
            pair_from_text(text)


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
        # stems are compared as text: == on two 1200-deep tuples exceeds
        # CPython's comparison depth limit
        back = pair_from_text(text)
        assert pair_to_text(back) == text
        assert back.ptpt.n == COMB_INDEX
        assert len(walk_labels(back.ptpt)) == 2 * COMB_INDEX + 1
        assert decode(back) == tree


class TestRoundTripProperties:
    @ROUND_TRIP
    @given(morse_trees())
    def test_decode_inverts_encode(self, tree):
        assert decode(encode(tree)) == tree

    @ROUND_TRIP
    @given(morse_trees())
    def test_pair_text_round_trip(self, tree):
        pair = encode(tree)
        assert pair_from_text(pair_to_text(pair)) == pair

    @ROUND_TRIP
    @given(morse_trees())
    def test_tree_text_round_trip(self, tree):
        assert tree_from_text(tree_to_text(tree)) == tree
