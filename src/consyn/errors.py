"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """A documented hypothesis of a synthesis or analysis step is violated."""


class InfeasibleError(RuntimeError):
    """The feasibility search exhausted its budget without a certificate.

    This is "infeasible within budget": the solver never certifies that no
    solution exists, it only reports that it could not find one. trace is
    the solver's lmi.SolveTrace when the search ran.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BlowUpError(RuntimeError):
    """State norm crossed the blow-up guard during integration."""

    def __init__(self, message, last_valid_time=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
