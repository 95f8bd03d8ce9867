"""Finite binary trees and tree pairs.

A tree is either ``None`` (a leaf) or a pair ``(left, right)`` of trees.
Trees double as complete prefix antichains: the leaves of a tree, read
left to right, are binary strings no one of which is a prefix of another,
and every infinite binary string has exactly one of them as a prefix.
"""

from __future__ import annotations

from dataclasses import dataclass

LEAF = None


def num_leaves(t) -> int:
    count = 0
    stack = [t]
    while stack:
        node = stack.pop()
        if node is None:
            count += 1
        else:
            stack.extend(node)
    return count


def antichain(t) -> list[str]:
    """Leaf addresses of ``t`` in left-to-right order ('' for a lone leaf)."""
    out = []
    stack = [(t, "")]
    while stack:
        node, prefix = stack.pop()
        if node is None:
            out.append(prefix)
        else:
            stack.append((node[1], prefix + "1"))
            stack.append((node[0], prefix + "0"))
    return out


def tree_from_antichain(chain) -> tuple | None:
    """Rebuild the tree whose leaves are exactly ``chain`` (sorted or not)."""
    # Sorted, the leaves come left to right, so when a right subtree is
    # finished, its left sibling is finished too and on top of the stack.
    stack: list[tuple[str, tuple | None]] = []
    for addr in sorted(chain):
        node = LEAF
        while addr.endswith("1") and stack and stack[-1][0] == addr[:-1] + "0":
            node = (stack.pop()[1], node)
            addr = addr[:-1]
        stack.append((addr, node))
    if len(stack) != 1 or stack[0][0] != "":
        raise ValueError("not a complete antichain: %r" % (chain,))
    return stack[0][1]


def comb(n: int) -> tuple | None:
    """The right vine / right comb with ``n`` leaves."""
    if n < 1:
        raise ValueError("comb needs at least one leaf")
    t = LEAF
    for _ in range(n - 1):
        t = (LEAF, t)
    return t


def tree_with_cut(s: str) -> tuple | None:
    """Smallest tree in which the dyadic point 0.s is a boundary between leaves."""
    t = LEAF
    for bit in reversed(s):
        t = (LEAF, t) if bit == "1" else (t, LEAF)
    return t


@dataclass
class TreePair:
    """A pair of binary trees with a bijection between their leaves.

    ``bijection[i]`` is the index of the range-tree leaf fed by domain
    leaf ``i``.  The identity bijection describes an element of F, a
    cyclic one an element of T, an arbitrary one an element of V.
    """

    domain: tuple | None
    range_: tuple | None
    bijection: tuple[int, ...]

    def __post_init__(self):
        n = num_leaves(self.domain)
        if num_leaves(self.range_) != n:
            raise ValueError("tree pair leaf counts differ")
        if sorted(self.bijection) != list(range(n)):
            raise ValueError("leaf bijection is not a bijection")

    @property
    def n_leaves(self) -> int:
        return num_leaves(self.domain)

    def is_cyclic(self) -> bool:
        """True when the bijection is i -> (i + s) mod n for some shift s."""
        n = self.n_leaves
        s = self.bijection[0]
        return all(self.bijection[i] == (i + s) % n for i in range(n))

    def cyclic_shift(self) -> int:
        if not self.is_cyclic():
            raise ValueError("leaf bijection is not cyclic")
        return self.bijection[0]

