"""Array-based gain bucket structure for FM.

The classic Fiduccia--Mattheyses bucket list: one doubly-linked list per
integer gain value, a moving max-gain pointer, O(1) insert/remove/update.
Everything is flat integer arrays indexed by vertex id -- no node objects
-- because the FM inner loop performs millions of these operations.

The same structure serves LIFO FM (pop the most recently inserted vertex
of the best bucket), FIFO FM (pop the oldest) and CLIP (keys are gain
*updates* rather than gains, so the key range doubles; see
:meth:`GainBucket.adjust` for why ``2 * max_gain`` is a hard bound).

Buckets are built to be *reused*: an FM engine allocates one bucket per
side once, then calls :meth:`GainBucket.reset` at the start of every
pass, which costs O(members) rather than O(num_vertices + key range).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

_NIL = -2
"""Link terminator distinct from any vertex id and from 'not present'."""
_ABSENT = -1


class GainBucket:
    """Bucket array over integer keys in ``[-limit, +limit]``.

    Vertices are small non-negative integers below ``num_vertices``.
    """

    __slots__ = (
        "_limit",
        "_head",
        "_tail",
        "_prev",
        "_next",
        "_key",
        "_present",
        "_max_index",
        "_count",
    )

    def __init__(self, num_vertices: int, limit: int) -> None:
        if limit < 0:
            raise ValueError("gain limit must be non-negative")
        self._limit = limit
        size = 2 * limit + 1
        self._head: List[int] = [_NIL] * size
        self._tail: List[int] = [_NIL] * size
        self._prev: List[int] = [_NIL] * num_vertices
        self._next: List[int] = [_NIL] * num_vertices
        self._key: List[int] = [0] * num_vertices
        self._present: List[bool] = [False] * num_vertices
        self._max_index = -1  # index into bucket arrays; -1 == empty
        self._count = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __contains__(self, vertex: int) -> bool:
        return self._present[vertex]

    def key_of(self, vertex: int) -> int:
        """Current key of ``vertex`` (undefined if absent)."""
        return self._key[vertex]

    def max_key(self) -> Optional[int]:
        """Largest key present, or ``None`` when empty."""
        if self._count == 0:
            return None
        return self._max_index - self._limit

    # ------------------------------------------------------------------
    def insert(self, vertex: int, key: int) -> None:
        """Insert ``vertex`` at the *head* of its bucket (LIFO position)."""
        if self._present[vertex]:
            raise ValueError(f"vertex {vertex} already in bucket")
        if not -self._limit <= key <= self._limit:
            raise ValueError(
                f"key {key} outside [-{self._limit}, {self._limit}]"
            )
        idx = key + self._limit
        old_head = self._head[idx]
        self._next[vertex] = old_head
        self._prev[vertex] = _NIL
        if old_head != _NIL:
            self._prev[old_head] = vertex
        else:
            self._tail[idx] = vertex
        self._head[idx] = vertex
        self._key[vertex] = key
        self._present[vertex] = True
        self._count += 1
        if idx > self._max_index:
            self._max_index = idx

    def remove(self, vertex: int) -> None:
        """Unlink ``vertex`` from its bucket."""
        if not self._present[vertex]:
            raise ValueError(f"vertex {vertex} not in bucket")
        idx = self._key[vertex] + self._limit
        p, n = self._prev[vertex], self._next[vertex]
        if p != _NIL:
            self._next[p] = n
        else:
            self._head[idx] = n
        if n != _NIL:
            self._prev[n] = p
        else:
            self._tail[idx] = p
        self._present[vertex] = False
        self._count -= 1
        if self._count == 0:
            self._max_index = -1
        elif idx == self._max_index and self._head[idx] == _NIL:
            while self._max_index >= 0 and self._head[self._max_index] == _NIL:
                self._max_index -= 1

    def update(self, vertex: int, new_key: int) -> None:
        """Move ``vertex`` to the bucket for ``new_key``."""
        self.remove(vertex)
        self.insert(vertex, new_key)

    def adjust(self, vertex: int, delta: int) -> None:
        """Shift ``vertex``'s key by ``delta``, saturating at the limit.

        For plain FM the key is the vertex's actual gain, which is
        bounded by the vertex's total incident net weight, so a key
        never leaves ``[-limit, limit]``.  For CLIP the key is the
        *accumulated update* since pass start.  Because every delta is
        applied to the key and the actual gain together, the key always
        equals ``gain_now - gain_at_insert``, and both terms are bounded
        by the vertex's total incident net weight ``S_v``; hence
        ``|key| <= 2 * S_v <= 2 * max_gain``, which is exactly the CLIP
        bucket limit the FM engines allocate.  The saturation below can
        therefore never fire for a correctly-driven engine -- it exists
        so that a caller that breaks the invariant degrades to a
        slightly-wrong priority instead of a crash deep inside a pass.
        """
        new_key = self._key[vertex] + delta
        limit = self._limit
        if new_key > limit:
            new_key = limit
        elif new_key < -limit:
            new_key = -limit
        self.remove(vertex)
        self.insert(vertex, new_key)

    # ------------------------------------------------------------------
    def peek_max(self, fifo: bool = False) -> Optional[int]:
        """Best-bucket vertex without removal.

        ``fifo=False`` returns the most recently inserted vertex of the
        max bucket (LIFO); ``fifo=True`` the oldest.
        """
        if self._count == 0:
            return None
        idx = self._max_index
        return self._tail[idx] if fifo else self._head[idx]

    def pop_max(self, fifo: bool = False) -> Optional[int]:
        """Remove and return the best-bucket vertex (or ``None``)."""
        v = self.peek_max(fifo=fifo)
        if v is not None:
            self.remove(v)
        return v

    def iter_bucket(self, key: int, fifo: bool = False) -> Iterator[int]:
        """Iterate the vertices holding ``key`` in pop order."""
        idx = key + self._limit
        v = self._tail[idx] if fifo else self._head[idx]
        link = self._prev if fifo else self._next
        while v != _NIL:
            yield v
            v = link[v]

    def iter_descending(self, fifo: bool = False) -> Iterator[int]:
        """Iterate all vertices, best key first, pop order within a key.

        The FM engine uses this to find the best *feasible* move when the
        top vertex is blocked by the balance constraint.
        """
        idx = self._max_index
        while idx >= 0:
            if self._head[idx] != _NIL:
                yield from self.iter_bucket(idx - self._limit, fifo=fifo)
            idx -= 1

    def clear(self) -> None:
        """Empty the structure in O(members + occupied key range).

        Instead of rewriting the full ``_present``/``_head``/``_tail``
        arrays (O(num_vertices + 2*limit+1), the historical behaviour),
        walk downward from the max-gain pointer, unlinking the members
        of each occupied bucket, and stop as soon as every member has
        been dropped -- all buckets below the lowest occupied one are
        already empty.  This is what makes per-pass bucket reuse in the
        FM kernels cheaper than allocating fresh buckets.
        """
        head = self._head
        tail = self._tail
        nxt = self._next
        present = self._present
        remaining = self._count
        idx = self._max_index
        while remaining and idx >= 0:
            v = head[idx]
            if v != _NIL:
                while v != _NIL:
                    present[v] = False
                    remaining -= 1
                    v = nxt[v]
                head[idx] = _NIL
                tail[idx] = _NIL
            idx -= 1
        self._count = 0
        self._max_index = -1

    def reset(self) -> None:
        """Prepare the bucket for reuse (the FM per-pass entry point).

        Semantically identical to :meth:`clear`; the separate name marks
        the supported reuse pattern: one bucket per engine, ``reset()``
        at the start of every pass instead of a fresh allocation.
        """
        self.clear()

    def resize(self, num_vertices: int, limit: int) -> None:
        """Re-shape the bucket for a different vertex count / key range.

        The engine-pool entry point: an FM engine rebound to a new graph
        keeps its bucket objects and resizes them instead of allocating
        fresh ones.  The structure is emptied first (``clear`` leaves
        every ``_head``/``_tail`` slot at ``_NIL`` and every ``_present``
        flag False, so surviving prefixes need no rewriting); the arrays
        are then grown or truncated in place.
        """
        if limit < 0:
            raise ValueError("gain limit must be non-negative")
        self.clear()
        self._limit = limit
        size = 2 * limit + 1
        for arr, fill in (
            (self._head, _NIL),
            (self._tail, _NIL),
        ):
            if len(arr) > size:
                del arr[size:]
            elif len(arr) < size:
                arr.extend([fill] * (size - len(arr)))
        for arr, fill in (
            (self._prev, _NIL),
            (self._next, _NIL),
            (self._key, 0),
            (self._present, False),
        ):
            if len(arr) > num_vertices:
                del arr[num_vertices:]
            elif len(arr) < num_vertices:
                arr.extend([fill] * (num_vertices - len(arr)))
