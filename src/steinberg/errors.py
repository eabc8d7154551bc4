"""Exception types shared across the package, and how their messages
quote the values they name."""

# how many characters of a value an error message quotes
_QUOTE_CAP = 80


def quote(value: object) -> str:
    """``repr(value)`` for an error message, cut after 80 characters with
    the cut marked, so that a message stays one short line whatever the
    size of the input it names."""
    text = repr(value)
    if len(text) <= _QUOTE_CAP:
        return text
    return f"{text[:_QUOTE_CAP]}... ({len(text)} characters)"


class SteinbergError(Exception):
    """Base class for every error raised by this package."""


class GraphConstructionError(SteinbergError, ValueError):
    """Invalid vertex count, endpoint, loop, or duplicate edge."""


class FormatError(SteinbergError, ValueError):
    """Malformed input to one of the codecs.

    ``offset`` is the byte position of the first offending byte when it
    is known, else None.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ImproperFixingError(SteinbergError, ValueError):
    """A pre-assigned coloring already violates an edge on its own."""


class SizeGuardError(SteinbergError, ValueError):
    """An exhaustive routine was asked to enumerate beyond its guard."""


class ContractError(SteinbergError, ValueError):
    """A gadget failed an interface-contract clause.

    ``clause`` names the first failing clause.
    """

    def __init__(self, message: str, clause: str | None = None):
        super().__init__(message)
        self.clause = clause


class PasteError(SteinbergError, ValueError):
    """A paste recipe is structurally invalid."""


class CertificateError(SteinbergError, ValueError):
    """A planarity certificate does not validate against its graph."""


class OracleMismatchError(SteinbergError, RuntimeError):
    """A solver verdict failed its independent check: an improper witness,
    a refutation proof that fails its check, or a disagreeing sweep."""


class SearchSpecError(SteinbergError, ValueError):
    """A gadget search specification is unusable as given."""
