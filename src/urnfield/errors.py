"""Exception types shared across the package.

Invalid arguments raise plain ``ValueError``; the classes below distinguish
failure modes that callers (notably the CLI) treat differently.
"""


class ConditionViolation(RuntimeError):
    """A mathematical precondition failed at runtime (e.g. a divergent tail
    sum was requested, or a weight's log is not finite)."""


class InternalConsistencyError(RuntimeError):
    """A numerical invariant the implementation maintains was violated;
    indicates a bug or catastrophic rounding, never a model event."""
