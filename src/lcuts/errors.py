"""Exception types shared across the package."""


class LcutsError(Exception):
    """Base class for every error raised by this package."""


class InputError(LcutsError):
    """Unreadable, malformed, or inconsistent user input (files, config)."""


class DimensionMismatchError(LcutsError):
    """Operands live in different coordinate dimensions."""


class DegenerateInputError(LcutsError):
    """Data admits no well-defined answer (coincident points, empty side, ...)."""


class MissingDataError(LcutsError):
    """An optional attachment (intensity, image) is required but absent."""


class OutOfBoundsError(LcutsError):
    """A sample location falls outside the raster."""


class SynthesisError(LcutsError):
    """Rejection sampling could not satisfy the layout constraints."""


class NodeError(InputError):
    """A node of a cloud fails a check: ``node`` is its index, ``reason``
    what is wrong, and ``first`` the earlier node it repeats, when its
    location is a duplicate."""

    def __init__(self, node: int, reason: str, first: int | None = None) -> None:
        self.node, self.reason, self.first = node, reason, first
        tail = "" if first is None else f" (first at node {first})"
        super().__init__(f"node {node}: {reason}{tail}")
