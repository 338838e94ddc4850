"""ART node types: Leaf, Node4, Node16, Node48, Node256.

The four inner node types are modeled, not mirrored: each type class
holds only the constants of its C layout in the original paper
(16-byte header + key/pointer arrays), so the modeled memory accounting
matches what a C++ ART would allocate:

==========  =============================  ======
node        C layout                       bytes
==========  =============================  ======
Leaf        key (8) + value (8)            16
Node4       hdr 16 + keys 4 + ptrs 32      52
Node16      hdr 16 + keys 16 + ptrs 128    160
Node48      hdr 16 + index 256 + ptrs 384  656
Node256     hdr 16 + ptrs 2048             2064
==========  =============================  ======

In Python they share two layouts.  Node4 and Node16 keep sorted
parallel ``keys``/``children`` lists searched by bisection; Node48 and
Node256 keep one 256-slot ``children`` list indexed by the key byte
(Node48's byte index and 48-slot array exist only in its
``SIZE_BYTES``).  A type still decides what the tree does with a node:
when it is full (``CAPACITY``), when it shrinks (``SHRINK_AT``), and
which type replaces it (``GROWN``/``SHRUNK``, built by
:meth:`Node.resized`).

Each node holds ``line``, the first of the ``LINES`` cache line ids its
``SIZE_BYTES`` cover.  The tree reserves them before it constructs the
node (one :meth:`~repro.sim.trace.MemoryMap.reserve` per node, or one
:meth:`~repro.sim.trace.MemoryMap.reserve_run` for a whole bulk build)
and calls :meth:`~repro.sim.trace.MemoryMap.release` with the same size
when it frees the node.  The header line (``line`` itself) holds the
lock word, prefix, and ``match_level``; child pointers live in the
following lines, and traversal records the specific line it dereferences
(``line + byte_offset // 64``, see :meth:`Node.child_line`), whatever the
Python layout.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator

from repro.concurrency.version_lock import OptimisticLock
from repro.sim.trace import CACHE_LINE_BYTES, line_count

KEY_BYTES = 8
_HEADER_BYTES = 16


def encode_key(key: int) -> bytes:
    """8-byte big-endian encoding; byte order equals numeric order."""
    return key.to_bytes(KEY_BYTES, "big")


class Leaf:
    """A single key/value pair.  Immutable: updates replace the leaf.

    ``parent``/``pbyte`` locate the edge above the leaf; the C design
    keeps the parent pointer in the header, so it adds no modeled bytes.
    """

    __slots__ = ("key", "kbytes", "value", "line", "parent", "pbyte")

    SIZE_BYTES = 16

    def __init__(self, key: int, value, line: int):
        self.key = key
        self.kbytes = encode_key(key)
        self.value = value
        self.line = line
        self.parent = None
        self.pbyte = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Leaf({self.key})"


class Node:
    """Base inner node: compressed prefix, match level, OLC lock.

    A layout subclass holds the children and implements ``load``,
    ``find_child``, ``add_child``, ``replace_child``, ``remove_child``
    and ``iter_children(start)`` (the ``(byte, child)`` pairs with
    ``byte >= start``, in byte order).
    """

    __slots__ = ("prefix", "match_level", "lock", "line", "count", "parent", "pbyte")

    SIZE_BYTES = CAPACITY = SHRINK_AT = 0
    GROWN = SHRUNK = None

    def __init__(self, prefix: bytes, match_level: int, line: int):
        self.prefix = prefix
        self.match_level = match_level
        self.lock = OptimisticLock()
        self.line = line
        self.count = 0
        self.parent = None
        self.pbyte = 0

    def child_line(self, byte: int) -> int:
        """Cache line holding the child pointer selected by ``byte``."""
        body = self.SIZE_BYTES - _HEADER_BYTES
        return self.line + (_HEADER_BYTES + (byte * 8) % body) // CACHE_LINE_BYTES

    def is_full(self) -> bool:
        return self.count >= self.CAPACITY

    def resized(self, cls: type, line: int) -> "Node":
        """A ``cls`` node at ``line`` with this node's prefix, match level
        and children: what a growth or shrink replaces this node with."""
        node = cls(self.prefix, self.match_level, line)
        pairs = list(self.iter_children())
        node.load([byte for byte, _ in pairs], [child for _, child in pairs])
        return node

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(prefix={self.prefix.hex()}, "
            f"level={self.match_level}, count={self.count})"
        )


class _SortedNode(Node):
    """Node4/Node16 layout: sorted parallel ``keys``/``children`` lists."""

    __slots__ = ("keys", "children")

    def __init__(self, prefix: bytes, match_level: int, line: int):
        super().__init__(prefix, match_level, line)
        self.keys: list[int] = []
        self.children: list = []

    def load(self, edges: list[int], children: list) -> None:
        """Fill this empty node from byte-ordered edges; takes the lists."""
        self.keys, self.children, self.count = edges, children, len(edges)

    def find_child(self, byte: int):
        """Readers call this without the node lock, and a writer may
        shrink the lists between two reads.  A torn read returns None or
        a wrong child, never raises: the caller's version check then
        restarts it."""
        keys = self.keys
        i = bisect_left(keys, byte)
        try:
            return self.children[i] if keys[i] == byte else None
        except IndexError:
            return None

    def add_child(self, byte: int, child) -> None:
        i = bisect_left(self.keys, byte)
        self.keys.insert(i, byte)
        self.children.insert(i, child)
        self.count += 1

    def replace_child(self, byte: int, child) -> None:
        self.children[bisect_left(self.keys, byte)] = child

    def remove_child(self, byte: int) -> None:
        i = bisect_left(self.keys, byte)
        del self.keys[i]
        del self.children[i]
        self.count -= 1

    def iter_children(self, start: int = 0) -> Iterator[tuple[int, object]]:
        i = bisect_left(self.keys, start)
        return zip(self.keys[i:], self.children[i:])

    @property
    def only_child(self):
        """The single remaining (byte, child) pair; valid when count == 1."""
        return self.keys[0], self.children[0]


class _SlotNode(Node):
    """Node48/Node256 layout: one child slot per byte, None where empty."""

    __slots__ = ("children",)

    def __init__(self, prefix: bytes, match_level: int, line: int):
        super().__init__(prefix, match_level, line)
        self.children: list = [None] * 256

    def load(self, edges: list[int], children: list) -> None:
        """Fill this empty node from byte-ordered edges."""
        slots = self.children
        for byte, child in zip(edges, children):
            slots[byte] = child
        self.count = len(edges)

    def find_child(self, byte: int):
        return self.children[byte]

    def add_child(self, byte: int, child) -> None:
        self.children[byte] = child
        self.count += 1

    def replace_child(self, byte: int, child) -> None:
        self.children[byte] = child

    def remove_child(self, byte: int) -> None:
        self.children[byte] = None
        self.count -= 1

    def iter_children(self, start: int = 0) -> Iterator[tuple[int, object]]:
        children = self.children
        for byte in range(start, 256):
            child = children[byte]
            if child is not None:
                yield byte, child


class Node4(_SortedNode):
    __slots__ = ()
    SIZE_BYTES = 52
    CAPACITY = 4


class Node16(_SortedNode):
    __slots__ = ()
    SIZE_BYTES = 160
    CAPACITY = 16
    SHRINK_AT = 3


class Node48(_SlotNode):
    __slots__ = ()
    SIZE_BYTES = 656
    CAPACITY = 48
    SHRINK_AT = 12


class Node256(_SlotNode):
    __slots__ = ()
    SIZE_BYTES = 2064
    CAPACITY = 256
    SHRINK_AT = 37


# The cache lines each node type covers, and the types an inner node
# grows and shrinks into: the tree reserves the new node's lines before
# it calls resized().
for _cls in (Leaf, Node4, Node16, Node48, Node256):
    _cls.LINES = line_count(_cls.SIZE_BYTES)
Node4.GROWN, Node16.GROWN, Node48.GROWN = Node16, Node48, Node256
Node16.SHRUNK, Node48.SHRUNK, Node256.SHRUNK = Node4, Node16, Node48


def common_prefix_len(a: bytes, b: bytes, start: int = 0) -> int:
    """Length of the shared prefix of ``a[start:]`` and ``b[start:]``."""
    n = min(len(a), len(b)) - start
    for i in range(n):
        if a[start + i] != b[start + i]:
            return i
    return max(n, 0)
