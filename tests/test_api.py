import dataclasses
import inspect

import consyn
from consyn import lmi, numkit


def test_public_callables_take_no_numeric_policy():
    """Tolerances and solver budgets are module constants, not arguments
    of functions or fields of records."""
    offenders = []
    for name in consyn.__all__:
        obj = getattr(consyn, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj)
                                       and dataclasses.is_dataclass(obj)):
            params = inspect.signature(obj).parameters
            offenders += [f"{name}({p})" for p in params
                          if p in ("tol", "tolerance", "options")]
    assert offenders == []


def test_tolerance_tables_are_gone():
    for module, names in ((consyn, ("Tolerances", "TOL", "SolverOptions")),
                          (numkit, ("Tolerances", "TOL")),
                          (lmi, ("SolverOptions",))):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
