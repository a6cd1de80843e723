"""Exception types shared across the package."""


class DivintError(Exception):
    """Base class for package-specific errors."""


class ResourceLimitError(DivintError):
    """A cap would be exceeded; built only by `limit_error`, whose message
    names the cap."""


def limit_error(what: str, value: int | None, limit: int,
                name: str) -> ResourceLimitError:
    """The refusal for `what`, which came to `value` against `limit`.

    `value` is None when a walk stops at the cap without knowing its total.
    `name` is the dotted module constant that holds the cap, such as
    `oracle.CLIQUE_CAP`.
    """
    amount = "exceeds" if value is None else f"is {value}, above"
    return ResourceLimitError(
        f"{what} {amount} the cap of {limit} ({name}, a fixed constant)")


class TheoremViolationError(DivintError):
    """An invariant that should hold unconditionally failed.

    This never fires on correct code; it exists so that a bug (or a genuine
    counterexample to one of the verified laws) surfaces loudly instead of
    producing a silently wrong table.  `counterexample` is a JSON-serializable
    payload describing the failing instance.
    """

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


class PreconditionError(DivintError, ValueError):
    """Caller violated a documented precondition; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
