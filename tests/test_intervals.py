"""The byte-interval map and its two users, liveness and dependency
derivation, against brute-force per-byte oracles.

Random access sequences run over two FM memories of MEM_BYTES bytes.  An
access is a stand-in instruction with a queue type and a few read and
write ranges; both users only look at those.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpuc.errors import UseBeforeDefError
from dpuc.intervals import ADDR_LIMIT, IntervalMap
from dpuc.machine import FM, OP_TYPES
from dpuc.memory import compute_liveness
from dpuc.pipeline import derive_dependencies

MEM_BYTES = 64
K = (FM, 0)


@dataclass
class Access:
    op: str
    rd: list
    wr: list
    sub: str = "access"

    def reads(self, exact=False):
        return list(self.rd)

    def writes(self, exact=False):
        return list(self.wr)


byte_range = st.tuples(st.integers(0, 1), st.integers(0, MEM_BYTES - 1),
                       st.integers(1, 32)).map(
    lambda t: (FM, t[0], t[1], min(MEM_BYTES, t[1] + t[2])))
accesses = st.lists(
    st.builds(Access, st.sampled_from(OP_TYPES),
              st.lists(byte_range, max_size=2),
              st.lists(byte_range, max_size=2)),
    min_size=1, max_size=24)


def test_interval_map_split_update_assign():
    m = IntervalMap()
    assert m.assign(K, 0, 64, "a") == []
    assert m.update(K, 16, 32, str.upper)
    assert not m.update(K, 64, 80, str.upper)
    assert not m.update((FM, 1), 0, 8, str.upper)
    # displaced pieces come back clipped to the assigned range
    assert m.assign(K, 8, 24, "b") == [(8, 16, "a"), (16, 24, "A")]
    # equal neighbours stay separate pieces
    m.update(K, 0, 64, str.lower)
    assert list(m.pieces()) == [(K, 0, 8, "a"), (K, 8, 24, "b"),
                                (K, 24, 32, "a"), (K, 32, 64, "a")]
    assert m.assign(K, 4, 4, "c") == []

    d = IntervalMap(0)
    assert d.update(K, 4, 8, lambda v: v + 1)
    assert list(d.pieces()) == [(K, 0, 4, 0), (K, 4, 8, 1),
                                (K, 8, ADDR_LIMIT, 0)]


def liveness_oracle(prog):
    """Sorted per-byte (mem, byte, first write, last read) lifetimes, and
    the index of the first read of never-written bytes (or None)."""
    writer = np.full((2, MEM_BYTES), -1)
    last = np.full((2, MEM_BYTES), -1)
    out = []
    for idx, acc in enumerate(prog):
        for _s, m, lo, hi in acc.rd:
            owned = writer[m, lo:hi] >= 0
            if not owned.any():
                return None, idx
            last[m, lo:hi][owned] = idx
        for _s, m, lo, hi in acc.wr:
            for b in np.flatnonzero(writer[m, lo:hi] >= 0) + lo:
                out.append((m, int(b), int(writer[m, b]), int(last[m, b])))
            writer[m, lo:hi] = idx
            last[m, lo:hi] = idx
    for m, b in zip(*np.nonzero(writer >= 0)):
        out.append((int(m), int(b), int(writer[m, b]), int(last[m, b])))
    return sorted(out), None


@given(accesses)
@settings(max_examples=200, deadline=None)
def test_liveness_matches_per_byte_oracle(prog):
    expected, bad_read = liveness_oracle(prog)
    if bad_read is not None:
        with pytest.raises(UseBeforeDefError,
                           match=f"instruction {bad_read} "):
            compute_liveness(prog)
        return
    ranges = compute_liveness(prog)
    assert [(r.first, r.key) for r in ranges] == \
        sorted((r.first, r.key) for r in ranges)
    per_byte = []
    for r in ranges:
        space, mem, lo, hi = r.key
        assert space == FM and lo < hi
        assert r.dead == (r.first == r.last)
        per_byte += [(mem, b, r.first, r.last) for b in range(lo, hi)]
    assert sorted(per_byte) == expected


def deps_oracle(prog):
    """Per access: the latest other-queue instruction it must wait for,
    per queue, from per-byte RAW/WAR/WAW sets and FM port hand-overs."""
    writer = np.full((2, MEM_BYTES), -1)
    readers = np.zeros((2, len(prog), MEM_BYTES), dtype=bool)
    port_user = {}
    out = []
    for idx, acc in enumerate(prog):
        hits = set()
        for _s, m, lo, hi in acc.rd:
            hits.update(writer[m, lo:hi].tolist())                    # RAW
            readers[m, idx, lo:hi] = True
        for _s, m, lo, hi in acc.wr:
            hits.update(writer[m, lo:hi].tolist())                    # WAW
            hits.update(np.flatnonzero(
                readers[m, :, lo:hi].any(axis=1)).tolist())           # WAR
            writer[m, lo:hi] = idx
            readers[m, :, lo:hi] = False
        ports = {(m, "r") for _s, m, _l, _h in acc.rd}
        ports |= {(m, "w") for _s, m, _l, _h in acc.wr}
        for port in ports:
            hits.add(port_user.get(port, -1))
            port_user[port] = idx
        targets = {}
        for j in hits - {-1}:
            if prog[j].op != acc.op:
                targets[prog[j].op] = max(targets.get(prog[j].op, -1), j)
        out.append(targets)
    return out


@given(accesses)
@settings(max_examples=200, deadline=None)
def test_dependency_targets_match_per_byte_oracle(prog):
    assert derive_dependencies(prog) == deps_oracle(prog)
