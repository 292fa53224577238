"""The byte-interval map and its user, dependency derivation, against a
brute-force per-byte oracle.

Random access sequences run over two FM memories of MEM_BYTES bytes.  An
access is a stand-in instruction with a queue type and a few read and
write ranges; dependency derivation only looks at those.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpuc.intervals import ADDR_LIMIT, IntervalMap
from dpuc.machine import FM, OP_TYPES
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
    m = IntervalMap("a")
    m.update(K, 16, 32, str.upper)
    m.update((FM, 1), 0, 8, str.upper)
    m.update(K, 40, 40, str.upper)     # an empty range changes nothing
    # displaced pieces come back clipped to the assigned range
    assert m.assign(K, 8, 24, "b") == [(8, 16, "a"), (16, 24, "A")]
    assert m.assign(K, 4, 4, "c") == []
    # equal neighbours stay separate pieces; a memory starts as one piece
    m.update(K, 0, 64, str.lower)
    assert m.assign(K, 0, ADDR_LIMIT, "d") == [
        (0, 8, "a"), (8, 24, "b"), (24, 32, "a"), (32, 64, "a"),
        (64, ADDR_LIMIT, "a")]
    assert m.assign((FM, 1), 0, 16, "e") == [(0, 8, "A"), (8, 16, "a")]


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
