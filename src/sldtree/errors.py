"""Exception hierarchy shared across the package."""


class PrologError(Exception):
    """Base class for every error this package raises on purpose."""


class CyclicTermError(PrologError):
    """Resolving bindings would expand a variable bound inside itself.

    Unification runs without an occurs-check, so a binding like X -> f(X)
    can be created; it only becomes an error when something tries to
    resolve a term through it. `variable` is the one met inside its own
    value, and the message names it.
    """

    def __init__(self, variable) -> None:
        super().__init__(
            f"cyclic term: {variable.name} is bound inside its own value")
        self.variable = variable


class InstantiationError(PrologError):
    """A comparison goal saw an unbound or non-integer operand."""


class UnknownPredicateError(PrologError):
    """A goal called a predicate with no clauses (strict mode only)."""
