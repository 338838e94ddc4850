"""ART node types: Leaf, Node4, Node16, Node48, Node256.

Node sizes follow the C layout of the original paper (16-byte header +
key/pointer arrays), so the modeled memory accounting matches what a C++
ART would allocate:

==========  =============================  ======
node        layout                         bytes
==========  =============================  ======
Leaf        key (8) + value (8)            16
Node4       hdr 16 + keys 4 + ptrs 32      52
Node16      hdr 16 + keys 16 + ptrs 128    160
Node48      hdr 16 + index 256 + ptrs 384  656
Node256     hdr 16 + ptrs 2048             2064
==========  =============================  ======

Each node holds ``line``, the first of the ``LINES`` cache line ids its
``SIZE_BYTES`` cover.  The tree reserves them before it constructs the
node (one :meth:`~repro.sim.trace.MemoryMap.reserve` per node, or one
:meth:`~repro.sim.trace.MemoryMap.reserve_run` for a whole bulk build)
and calls :meth:`~repro.sim.trace.MemoryMap.release` with the same size
when it frees the node.  The header line (``line`` itself) holds the
lock word, prefix, and ``match_level``; child pointers live in the
following lines, and traversal records the specific line it dereferences
(``line + byte_offset // 64``, see :meth:`Node.child_line`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

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
    """Base inner node: compressed prefix, match level, OLC lock."""

    __slots__ = ("prefix", "match_level", "lock", "line", "count", "parent", "pbyte")

    SIZE_BYTES = 0  # overridden
    CAPACITY = 0

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

    # The methods below are implemented per node type.
    def find_child(self, byte: int):  # pragma: no cover - interface
        raise NotImplementedError

    def add_child(self, byte: int, child) -> None:  # pragma: no cover
        raise NotImplementedError

    def replace_child(self, byte: int, child) -> None:  # pragma: no cover
        raise NotImplementedError

    def remove_child(self, byte: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def iter_children(self, start: int = 0) -> Iterator[tuple[int, object]]:  # pragma: no cover
        """``(byte, child)`` pairs with ``byte >= start``, in byte order."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(prefix={self.prefix.hex()}, "
            f"level={self.match_level}, count={self.count})"
        )


def _find_sorted(keys: list[int], children: list, byte: int):
    """The child under ``byte`` in sorted parallel key/child lists.

    Readers call this without the node lock, and a writer may shrink the
    lists between two reads.  A torn read returns None or a wrong child,
    never raises: the caller's version check then restarts it.
    """
    i = bisect_left(keys, byte)
    try:
        return children[i] if keys[i] == byte else None
    except IndexError:
        return None


class Node4(Node):
    """Up to 4 children; sorted parallel key/child arrays."""

    __slots__ = ("keys", "children")

    SIZE_BYTES = 52
    CAPACITY = 4

    def __init__(self, prefix: bytes, match_level: int, line: int):
        super().__init__(prefix, match_level, line)
        self.keys: list[int] = []
        self.children: list = []

    def find_child(self, byte: int):
        return _find_sorted(self.keys, self.children, byte)

    def _slot_of(self, byte: int) -> int:
        return bisect_left(self.keys, byte)

    def add_child(self, byte: int, child) -> None:
        i = self._slot_of(byte)
        self.keys.insert(i, byte)
        self.children.insert(i, child)
        self.count += 1

    def replace_child(self, byte: int, child) -> None:
        i = self.keys.index(byte)
        self.children[i] = child

    def remove_child(self, byte: int) -> None:
        i = self.keys.index(byte)
        del self.keys[i]
        del self.children[i]
        self.count -= 1

    def iter_children(self, start: int = 0) -> Iterator[tuple[int, object]]:
        i = self._slot_of(start)
        return zip(self.keys[i:], self.children[i:])

    def grow(self, line: int) -> "Node16":
        node = self.GROWN(self.prefix, self.match_level, line)
        node.keys = list(self.keys)
        node.children = list(self.children)
        node.count = self.count
        return node

    @property
    def only_child(self):
        """The single remaining (byte, child) pair; valid when count == 1."""
        return self.keys[0], self.children[0]


class Node16(Node):
    """Up to 16 children; sorted arrays with binary search."""

    __slots__ = ("keys", "children")

    SIZE_BYTES = 160
    CAPACITY = 16
    SHRINK_AT = 3

    def __init__(self, prefix: bytes, match_level: int, line: int):
        super().__init__(prefix, match_level, line)
        self.keys: list[int] = []
        self.children: list = []

    def _search(self, byte: int) -> int:
        return bisect_left(self.keys, byte)

    def find_child(self, byte: int):
        return _find_sorted(self.keys, self.children, byte)

    def add_child(self, byte: int, child) -> None:
        i = self._search(byte)
        self.keys.insert(i, byte)
        self.children.insert(i, child)
        self.count += 1

    def replace_child(self, byte: int, child) -> None:
        i = self._search(byte)
        self.children[i] = child

    def remove_child(self, byte: int) -> None:
        i = self._search(byte)
        del self.keys[i]
        del self.children[i]
        self.count -= 1

    def iter_children(self, start: int = 0) -> Iterator[tuple[int, object]]:
        i = self._search(start)
        return zip(self.keys[i:], self.children[i:])

    def grow(self, line: int) -> "Node48":
        node = self.GROWN(self.prefix, self.match_level, line)
        for byte, child in zip(self.keys, self.children):
            node.add_child(byte, child)
        return node

    def shrink(self, line: int) -> "Node4":
        node = self.SHRUNK(self.prefix, self.match_level, line)
        node.keys = list(self.keys)
        node.children = list(self.children)
        node.count = self.count
        return node


class Node48(Node):
    """256-entry byte index into a 48-slot child array."""

    __slots__ = ("child_index", "children", "_free_slots")

    SIZE_BYTES = 656
    CAPACITY = 48
    SHRINK_AT = 12
    EMPTY = 0xFF

    def __init__(self, prefix: bytes, match_level: int, line: int):
        super().__init__(prefix, match_level, line)
        self.child_index = bytearray([self.EMPTY] * 256)
        self.children: list = [None] * 48
        self._free_slots = list(range(47, -1, -1))

    def find_child(self, byte: int):
        slot = self.child_index[byte]
        if slot == self.EMPTY:
            return None
        return self.children[slot]

    def add_child(self, byte: int, child) -> None:
        slot = self._free_slots.pop()
        self.child_index[byte] = slot
        self.children[slot] = child
        self.count += 1

    def replace_child(self, byte: int, child) -> None:
        self.children[self.child_index[byte]] = child

    def remove_child(self, byte: int) -> None:
        slot = self.child_index[byte]
        self.child_index[byte] = self.EMPTY
        self.children[slot] = None
        self._free_slots.append(slot)
        self.count -= 1

    def iter_children(self, start: int = 0) -> Iterator[tuple[int, object]]:
        index = self.child_index
        for byte in range(start, 256):
            slot = index[byte]
            if slot != self.EMPTY:
                yield byte, self.children[slot]

    def grow(self, line: int) -> "Node256":
        node = self.GROWN(self.prefix, self.match_level, line)
        for byte, child in self.iter_children():
            node.add_child(byte, child)
        return node

    def shrink(self, line: int) -> "Node16":
        node = self.SHRUNK(self.prefix, self.match_level, line)
        for byte, child in self.iter_children():
            node.add_child(byte, child)
        return node


class Node256(Node):
    """Direct 256-way child array."""

    __slots__ = ("children",)

    SIZE_BYTES = 2064
    CAPACITY = 256
    SHRINK_AT = 37

    def __init__(self, prefix: bytes, match_level: int, line: int):
        super().__init__(prefix, match_level, line)
        self.children: list = [None] * 256

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

    def shrink(self, line: int) -> "Node48":
        node = self.SHRUNK(self.prefix, self.match_level, line)
        for byte, child in self.iter_children():
            node.add_child(byte, child)
        return node


# The cache lines each node type covers, and the types an inner node
# grows and shrinks into: the tree reserves the new node's lines before
# it calls grow() or shrink().
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
