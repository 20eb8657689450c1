import dataclasses
import inspect

import consyn
from consyn import graph, lmi, numkit, sim


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


def test_second_certificate_path_is_gone():
    """A certificate becomes a design only through synthesize, and only
    lmi.verify measures the margin a design reports."""
    for module, names in ((consyn, ("inject_certificate",)),
                          (lmi, ("block_margin",))):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_error_weights_have_one_source():
    """analyze alone derives the weights of V: the graph wrappers, the
    design's copies of the weights and the unread follower fields are
    gone."""
    for module in (consyn, graph):
        for name in ("classify", "laplacian"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, names in ((consyn.ProtocolDesign, ("weights", "leader")),
                       (consyn.LeaderFollowerData,
                        ("l2", "bigG", "simplified_applicable"))):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert fields.isdisjoint(names), f"{cls.__name__}: {names}"


def test_run_assessment_has_one_source():
    """assess alone turns a run into a report's numbers: the separate
    decrease diagnostic and attenuation cost are gone."""
    for module in (consyn, sim):
        for name in ("lyapunov_diag", "LyapunovReport", "hinf_cost",
                     "HinfCost"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_second_right_hand_side_is_gone():
    """The simulator evaluates f through Nonlinearity.matrix and the
    CATALOG table, and the wave through DisturbanceSpec.wave, tabulated
    once per run: the per-stage helpers are gone."""
    for obj, names in ((consyn.AgentModel, ("nonlinear",)),
                       (consyn.DisturbanceSpec, ("omega",)),
                       (consyn.Nonlinearity, ("_g",)),
                       (sim, ("NONLINEARITY_KINDS",))):
        for name in names:
            assert not hasattr(obj, name), f"{obj.__name__}.{name}"
