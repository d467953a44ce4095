"""The contract of the package's immutable value types: frozen dataclasses with
their public attributes as fields, identity equality and hash, pinned reprs
and read-only array fields."""

import dataclasses
import inspect

import numpy as np
import pytest

from anticonc.concentration import WeightVector
from anticonc.distributions import CompoundPoisson, DiscreteDistribution
from anticonc.errors import DomainError
from anticonc.progressions import Cgap, Gap

# (build, fields, constructor parameters with their defaults, repr)
CASES = {
    "distribution": (
        lambda: DiscreteDistribution([1.0, -1.0, 0.0], [0.25, 0.25, 0.5]),
        ("atoms", "weights", "normalized"),
        ("atoms", "weights", "normalized=True"),
        "DiscreteDistribution(3 atoms in R^1, distribution, mass=1)",
    ),
    "measure": (
        lambda: DiscreteDistribution([[0.0, 1.0], [1.0, 0.0]], [0.2, 0.3], normalized=False),
        ("atoms", "weights", "normalized"),
        ("atoms", "weights", "normalized=True"),
        "DiscreteDistribution(2 atoms in R^2, measure, mass=0.5)",
    ),
    "weights": (
        lambda: WeightVector([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        ("rows",),
        ("rows",),
        "WeightVector(n=3, dim=2)",
    ),
    "compound-poisson": (
        lambda: CompoundPoisson(2.5, DiscreteDistribution.rademacher()),
        ("intensity", "base"),
        ("intensity", "base"),
        "CompoundPoisson(intensity=2.5, base=DiscreteDistribution(2 atoms in R^1, "
        "distribution, mass=1))",
    ),
    "gap": (
        lambda: Gap([1.5, 2], [[1.0, 0.0], [0.0, 1.0]]),
        ("dims", "gens"),
        ("dims", "gens", "ambient_dim=None"),
        "Gap(rank=2, dims=(1.5, 2.0), ambient_dim=2)",
    ),
    "gap-rank-zero": (
        lambda: Gap([], [], ambient_dim=3),
        ("dims", "gens"),
        ("dims", "gens", "ambient_dim=None"),
        "Gap(rank=0, dims=(), ambient_dim=3)",
    ),
    "cgap": (
        lambda: Cgap([0.5, 1.0], [1, 2], 15),
        ("h", "box", "cap"),
        ("h", "box", "cap"),
        "Cgap(rank=2, cap=15, box=[1.0, 2.0])",
    ),
}

cases = pytest.mark.parametrize("case", list(CASES))


@cases
def test_fields_are_the_public_attributes(case):
    build, fields, params, _ = CASES[case]
    value = build()
    assert tuple(f.name for f in dataclasses.fields(value)) == fields
    assert value.__dataclass_params__.frozen and not value.__dataclass_params__.eq
    signature = inspect.signature(type(value)).parameters.values()
    assert tuple(
        p.name if p.default is p.empty else f"{p.name}={p.default}" for p in signature
    ) == params


@cases
def test_assignment_and_deletion_raise(case):
    build, fields, _, _ = CASES[case]
    value = build()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@cases
def test_equality_and_hash_are_by_identity(case):
    build = CASES[case][0]
    value, twin = build(), build()
    assert value == value and value != twin
    assert hash(value) == object.__hash__(value)
    assert len({value, twin}) == 2


@cases
def test_repr_is_pinned(case):
    build, _, _, text = CASES[case]
    assert repr(build()) == text


@cases
def test_array_fields_are_read_only(case):
    build, fields, _, _ = CASES[case]
    value = build()
    arrays = [getattr(value, name) for name in fields]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert arrays or case == "compound-poisson"
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_replace_runs_the_checks_again():
    law = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
    assert repr(dataclasses.replace(law, normalized=False)) == (
        "DiscreteDistribution(2 atoms in R^1, measure, mass=1)"
    )
    with pytest.raises(DomainError, match="weights sum to"):
        dataclasses.replace(law, weights=[0.5, 0.6])
    with pytest.raises(DomainError, match="cap m"):
        dataclasses.replace(Cgap([1.0], [1.0], 3), cap=0)
    with pytest.raises(DomainError, match="radii must be positive"):
        dataclasses.replace(Gap([1.0], [[2.0]]), dims=(-1.0,))
    with pytest.raises(DomainError, match="intensity"):
        dataclasses.replace(CompoundPoisson(1.0, DiscreteDistribution.rademacher()), intensity=-1)


def test_replace_keeps_a_rank_zero_gap_in_its_dimension():
    # the (0, d) generator array carries d; it read ambient_dim=1
    gap = dataclasses.replace(Gap([], [], ambient_dim=3))
    assert repr(gap) == "Gap(rank=0, dims=(), ambient_dim=3)"
    assert gap.gens.shape == (0, 3)
    assert Gap([], np.eye(0)).ambient_dim == 1
