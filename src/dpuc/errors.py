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
    """This retry-ladder step's tiling does not fit: no band height under
    the step's cap fits FM, or a stream's window slots do not fit its FM
    memory beside the streams live with it.  A later step may fit."""


class UnsupportedError(DpucError):
    """Operation shape outside what the backend implements."""


class AsmError(DpucError):
    """Assembly text parse failure; carries a line number."""

    def __init__(self, lineno, msg):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


class CapacityError(DpucError):
    """No tiling of this node mends it: the DDR layout past its cap,
    weights past PM, a row of an upsample or of the deconv upsample path
    past gamma (neither width-splits), a row past gamma at every strip
    count the width allows, or a stream past the last FM memory.  The
    retry ladder may still unfuse a fused node, which changes its strips
    and its data flow."""


class UseBeforeDefError(DpucError):
    """An instruction reads bytes that were never written."""


class OutOfBoundsError(DpucError):
    """An address range falls outside its memory."""


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
