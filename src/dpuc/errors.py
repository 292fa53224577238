"""Exception hierarchy shared by all passes and the simulator."""


class DpucError(Exception):
    """Base class for every error raised by this package."""


class ParseError(DpucError):
    """Malformed graph, machine config or trace document."""


class ShapeError(DpucError):
    """Inconsistent producer/consumer tensor shapes."""


class FoldError(DpucError):
    """A quantizer feeds consumers with incompatible requirements."""


class CycleError(DpucError):
    """Graph is not acyclic (defensive; parse already rejects cycles)."""


class InfeasibleError(DpucError):
    """A tiling request cannot be met at the current split depth."""


class UnsupportedError(DpucError):
    """Operation shape outside what the backend implements."""


class AsmError(DpucError):
    """Assembly text parse failure; carries a line number."""

    def __init__(self, lineno, msg):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


class CapacityError(DpucError):
    """A memory cannot hold what must sit in it at once: the DDR layout
    past its cap, weights past PM under every tiling of the node, a row
    of an upsample or of the deconv upsample path past gamma (neither
    width-splits, so no tiling shortens their rows), a row of an unfused
    node past gamma at every strip count its width allows, or a stream of
    an unfused node past the last FM memory."""


class UseBeforeDefError(DpucError):
    """An instruction reads bytes that were never written."""


class OutOfBoundsError(DpucError):
    """An address range falls outside its memory."""


class OutOfMemoryError(DpucError):
    """FM window planning cannot fit a stream's slots without overlap."""


class PortConflictError(DpucError):
    """An FM memory would need more than one read or write port."""


class EncodingError(DpucError):
    """A required dependency cannot be expressed by instruction type."""


class DeadlockError(DpucError):
    """Typed dependencies are unsatisfiable at simulation time."""


class CompileError(DpucError):
    """A node fits under no step of the retry ladder; carries the
    per-attempt failure ledger."""

    def __init__(self, msg, attempts=None):
        super().__init__(msg)
        self.attempts = list(attempts or [])
