"""Tree and antichain helpers."""

import pytest

from strandgroups.trees import (
    LEAF,
    TreePair,
    antichain,
    comb,
    num_leaves,
    tree_from_antichain,
    tree_with_cut,
)

from conftest import identity_pair, random_tree


def test_antichain_roundtrip(rng):
    for _ in range(100):
        t = random_tree(rng, rng.randrange(1, 12))
        assert tree_from_antichain(antichain(t)) == t


def test_comb():
    assert comb(1) is LEAF
    assert antichain(comb(4)) == ["0", "10", "110", "111"]


def test_incomplete_antichain_rejected():
    with pytest.raises(ValueError):
        tree_from_antichain(["0"])
    with pytest.raises(ValueError):
        tree_from_antichain(["0", "10"])


def test_tree_with_cut():
    # 0.11 = 3/4 must be a leaf boundary
    chain = antichain(tree_with_cut("11"))
    assert "11" in chain or any(s.startswith("11") for s in chain)
    assert sum(1 for s in chain if s < "11") >= 1


def test_tree_pair_validation():
    with pytest.raises(ValueError):
        TreePair(LEAF, (LEAF, LEAF), (0,))
    with pytest.raises(ValueError):
        TreePair((LEAF, LEAF), (LEAF, LEAF), (0, 0))
    tp = identity_pair()
    assert tp.n_leaves == 1 and tp.is_cyclic()


def test_cyclic_shift():
    tp = TreePair((LEAF, (LEAF, LEAF)), (LEAF, (LEAF, LEAF)), (1, 2, 0))
    assert tp.is_cyclic() and tp.cyclic_shift() == 1
    tp2 = TreePair((LEAF, (LEAF, LEAF)), (LEAF, (LEAF, LEAF)), (1, 0, 2))
    assert not tp2.is_cyclic()
    with pytest.raises(ValueError):
        tp2.cyclic_shift()


def test_num_leaves(rng):
    for _ in range(20):
        n = rng.randrange(1, 15)
        assert num_leaves(random_tree(rng, n)) == n
