"""Exception hierarchy shared by all satlab modules."""


class SatlabError(Exception):
    """Base class for all satlab errors."""


class InputError(SatlabError, ValueError):
    """A parameter violates a documented precondition."""


class CapacityError(InputError):
    """A graph would exceed the configured vertex capacity."""


class Graph6ParseError(SatlabError, ValueError):
    """Malformed graph6 text.  ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.message, self.offset = message, offset


class PreconditionError(SatlabError):
    """A caller-guaranteed precondition turned out to be false."""


class EmptyDomainError(SatlabError):
    """A minimum was requested over an empty set of graphs."""
