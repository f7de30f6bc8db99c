"""An exact naive total order, the oracle for the order-maintenance tests.

`NaiveOrder` is a list of handles kept in chunks of at most `cap`, with a
dict from each handle to its chunk.  Insert-after, remove and index cost
O(cap + number of chunks) instead of the O(n) of a plain list, so 1e5
operations take seconds, not minutes.  It never looks at the handles, so it
does not depend on `OrderMaintenance`.  `len` and `[k]` make it a sequence:
`random.choice` over it draws the same numbers and picks the same handle as
over the plain list it stands for.  `key_order` compares two handles of an
order-maintenance list by their keys.
"""


def key_order(om, a, b):
    """-1, 0 or 1 as `om.key(a)` is below, equal to or above `om.key(b)`."""
    ka, kb = om.key(a), om.key(b)
    return (ka > kb) - (ka < kb)


class NaiveOrder:
    def __init__(self, first, cap=256):
        self._cap = cap
        self._chunks = [[first]]
        self._chunk_of = {first: self._chunks[0]}
        self._len = 1

    def __len__(self):
        return self._len

    def __getitem__(self, k):
        if not 0 <= k < self._len:
            raise IndexError(k)
        for chunk in self._chunks:
            if k < len(chunk):
                return chunk[k]
            k -= len(chunk)

    def _chunk_pos(self, chunk):
        """The chunk's place in `_chunks` and the position of its head."""
        start = 0
        for i, c in enumerate(self._chunks):
            if c is chunk:
                return i, start
            start += len(c)
        raise AssertionError("chunk not in the order")

    def index(self, h):
        chunk = self._chunk_of[h]
        return self._chunk_pos(chunk)[1] + chunk.index(h)

    def insert_after(self, h, new):
        assert new not in self._chunk_of, "handle inserted twice"
        chunk = self._chunk_of[h]
        chunk.insert(chunk.index(h) + 1, new)
        self._chunk_of[new] = chunk
        self._len += 1
        if len(chunk) > self._cap:
            tail = chunk[len(chunk) // 2:]
            del chunk[len(chunk) // 2:]
            self._chunks.insert(self._chunk_pos(chunk)[0] + 1, tail)
            for x in tail:
                self._chunk_of[x] = tail

    def remove(self, h):
        chunk = self._chunk_of.pop(h)
        chunk.remove(h)
        self._len -= 1
        if not chunk:
            del self._chunks[self._chunk_pos(chunk)[0]]

    def order(self):
        return [h for chunk in self._chunks for h in chunk]


class Tail:
    """`order[1:]` as a view: every handle but the first, without a copy."""

    def __init__(self, order):
        self._order = order

    def __len__(self):
        return len(self._order) - 1

    def __getitem__(self, k):
        if not 0 <= k < len(self):
            raise IndexError(k)
        return self._order[k + 1]
