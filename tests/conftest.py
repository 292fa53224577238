"""Tier-1 hypothesis runs are reproducible: every property test draws the
same examples on every run (`derandomize`), and no example database
carries failures from one run into the next.  Each test keeps its own
`max_examples` and `deadline`.  The `operand_blocks` fixture lists an
operand's blocks for tests that count the bytes a program moves."""

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def _operand_blocks(ins, f):
    """[(space, mem, lo, hi)] of every block of operand f of `ins`,
    row-major, enumerated from `Instruction.operand` alone."""
    space, mem, off, (rows, blocks, size), (row, blk) = ins.operand(f)
    return [(space, mem, (o := off + r * row + b * blk), o + size)
            for r in range(rows) for b in range(blocks)]


@pytest.fixture
def operand_blocks():
    return _operand_blocks
