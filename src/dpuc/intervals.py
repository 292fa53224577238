"""Sorted byte-interval map behind dependency derivation.

Per `(space, mem)` the map keeps sorted, disjoint byte pieces `[lo, hi)`,
each carrying a value; every memory starts as one piece carrying the
initial value.  Both operations first split the pieces that straddle a
range's ends: `update` then rewrites the values inside the range,
`assign` replaces them by a single piece and hands back what it
displaced.  Pieces never merge, so the boundaries a caller sees are
exactly the ones its accesses produced.  Lookups are `bisect` searches
over the piece starts and ends; replacing a run of pieces is one
list-slice assignment.
"""

from bisect import bisect_left, bisect_right

# bytes of a memory that starts as one piece: past every real address
ADDR_LIMIT = 1 << 62


class IntervalMap:
    """Sorted, disjoint, valued byte pieces per `(space, mem)` key.

    Every memory starts as one piece `[0, ADDR_LIMIT)` carrying
    `initial`.  Values should be immutable: a split hands the same object
    to both halves.
    """

    def __init__(self, initial):
        self._initial = initial
        self._mems = {}   # key -> (piece starts, piece ends, values)

    def _lists(self, key):
        lists = self._mems.get(key)
        if lists is None:
            lists = self._mems[key] = ([0], [ADDR_LIMIT], [self._initial])
        return lists

    def _split(self, key, lo, hi):
        """Cut the pieces that straddle `lo` or `hi`; return the lists and
        the index range `[i, j)` of the pieces inside `[lo, hi)` (empty
        for an empty range)."""
        los, his, vals = lists = self._lists(key)
        i = bisect_right(his, lo)
        j = bisect_left(los, hi) if lo < hi else i
        if i < j and los[i] < lo:
            los.insert(i + 1, lo)
            his.insert(i, lo)
            vals.insert(i, vals[i])
            i += 1
            j += 1
        if i < j and his[j - 1] > hi:
            los.insert(j, hi)
            his.insert(j - 1, hi)
            vals.insert(j - 1, vals[j - 1])
        return lists, i, j

    def update(self, key, lo, hi, fn):
        """Replace the value `v` of every piece inside `[lo, hi)` by
        `fn(v)`, splitting at the ends first."""
        (_los, _his, vals), i, j = self._split(key, lo, hi)
        for k in range(i, j):
            vals[k] = fn(vals[k])

    def assign(self, key, lo, hi, value):
        """Make `[lo, hi)` one piece carrying `value`.  Returns the
        displaced pieces, clipped to the range, as `(lo, hi, value)`.
        An empty range changes nothing."""
        if lo >= hi:
            return []
        (los, his, vals), i, j = self._split(key, lo, hi)
        old = list(zip(los[i:j], his[i:j], vals[i:j]))
        los[i:j] = [lo]
        his[i:j] = [hi]
        vals[i:j] = [value]
        return old
