"""Value records behave and pickle like the frozen dataclasses they replace.

Every class built by :func:`repro._record.record` is checked against a
``dataclasses.dataclass(frozen=True)`` twin made from the same annotations
and defaults: field order, construction, the ``TypeError`` of a bad call,
fresh default-factory objects, equality, hash, repr and immutability.
``dataclasses`` is the reference here only; the package never imports it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro._record import factory, replace
from repro.bounds.results import Bound, BoundKind


def _package_classes() -> list[type]:
    classes = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        classes.extend(
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        )
    return classes


# Every record shares one ``__init__``.
RECORDS = sorted(
    (cls for cls in _package_classes() if cls.__init__ is Bound.__init__),
    key=lambda cls: (cls.__module__, cls.__qualname__),
)


def _twin(cls: type) -> type:
    """The frozen dataclass declared by ``cls``'s annotations and defaults."""
    spec = []
    for name in cls.__annotations__:
        if name not in cls.__dict__:
            spec.append((name, object))
        elif isinstance(cls.__dict__[name], factory):
            make = cls.__dict__[name].make
            spec.append((name, object, dataclasses.field(default_factory=make)))
        else:
            spec.append((name, object, cls.__dict__[name]))
    namespace = {}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.make_dataclass(
        cls.__qualname__, spec, frozen=True, namespace=namespace
    )


def _values(cls: type) -> dict:
    """Distinct field values that pass every ``__post_init__`` check."""
    return {name: 10 + i for i, name in enumerate(cls._fields)}


def _required(cls: type) -> dict:
    return {
        name: value for name, value in _values(cls).items()
        if name not in cls.__dict__
    }


def _type_error(make, *args, **kwargs) -> str:
    """The message of the ``TypeError`` a call raises, from ``__init__()``
    on (Python versions differ on the qualified-name prefix)."""
    with pytest.raises(TypeError) as caught:
        make(*args, **kwargs)
    return str(caught.value).split("__init__() ", 1)[1]


def test_every_value_class_is_a_record():
    """No class in the package is a dataclass; the twenty value classes
    are records."""
    classes = _package_classes()
    assert [cls for cls in classes if dataclasses.is_dataclass(cls)] == []
    assert len(RECORDS) == 20
    assert {"SolvabilityResult", "Bound", "BoundReport", "CacheStats",
            "StoreStats", "Job", "JobResult", "JobFailure"} <= {
        cls.__qualname__ for cls in RECORDS
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestAgainstDataclass:
    def test_fields_and_construction(self, cls):
        twin = _twin(cls)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
        values = tuple(_values(cls).values())
        ours, theirs = cls(*values), twin(*values)
        assert cls(**_values(cls)) == ours
        assert repr(ours) == repr(theirs)
        assert hash(ours) == hash(theirs)
        assert pickle.loads(pickle.dumps(ours, protocol=5)) == ours
        assert repr(cls(**_required(cls))) == repr(twin(**_required(cls)))
        changed = {cls._fields[-1]: -1}
        assert repr(replace(ours, **changed)) == repr(
            dataclasses.replace(theirs, **changed)
        )

    def test_bad_calls_raise_the_same_type_errors(self, cls):
        twin = _twin(cls)
        values = tuple(_values(cls).values())
        calls = [
            (values + (0,), {}),
            (values, {"bogus": 0}),
            (values, {cls._fields[0]: 0}),
            ((), {"bogus": 0}),
        ]
        # Too few positional arguments, where a field is required.
        calls += [((), {}), (values[:1], {})][: len(_required(cls))]
        for args, kwargs in calls:
            assert _type_error(cls, *args, **kwargs) == _type_error(
                twin, *args, **kwargs
            ), (args, kwargs)

    def test_default_factories_make_fresh_objects(self, cls):
        twin = _twin(cls)
        required = _required(cls)
        for name in cls._fields:
            if isinstance(cls.__dict__.get(name), factory):
                a, b = cls(**required), cls(**required)
                assert getattr(a, name) == getattr(twin(**required), name)
                assert getattr(a, name) is not getattr(b, name)

    def test_equality(self, cls):
        twin = _twin(cls)
        values = tuple(_values(cls).values())
        other = values[:-1] + (99,)
        ours, theirs = cls(*values), twin(*values)
        assert (ours == cls(*values), ours != cls(*values)) == (
            theirs == twin(*values), theirs != twin(*values)
        ) == (True, False)
        assert (ours == cls(*other), ours != cls(*other)) == (
            theirs == twin(*other), theirs != twin(*other)
        ) == (False, True)
        assert (ours == theirs, ours != theirs) == (False, True)

    def test_frozen(self, cls):
        twin = _twin(cls)
        values = tuple(_values(cls).values())
        name = cls._fields[0]
        for obj in (cls(*values), twin(*values)):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
            with pytest.raises(AttributeError):
                obj.extra = 0
        assert getattr(cls(*values), name) == values[0]


def test_bound_checks_every_copy():
    bound = Bound(BoundKind.UPPER, 2, 1, "3.2")
    with pytest.raises(ValueError, match="k must be non-negative"):
        Bound(BoundKind.UPPER, -1, 1, "3.2")
    with pytest.raises(ValueError, match="k must be non-negative"):
        replace(bound, k=-1)
    with pytest.raises(ValueError, match="rounds must be positive"):
        replace(bound, rounds=0)


def _pinned_records() -> list:
    from repro.analysis.sweeps import _subshard_solvable
    from repro.bounds.report import BoundReport
    from repro.engine.batch import Job, JobFailure, JobResult
    from repro.engine.cache import CacheStats
    from repro.graphs import Digraph
    from repro.store import StoreStats
    from repro.verification.solvability import SolvabilityResult

    g = Digraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    witness = {
        frozenset({(0, 0)}): 0,
        frozenset({(0, 0), (1, 1)}): 1,
        frozenset({(1, 1), (2, 0)}): 0,
    }
    unsat = SolvabilityResult(False, 1, 12, 30, None)
    sat = SolvabilityResult(True, 2, 3, 4, witness, rounds=2)
    upper = Bound(BoundKind.UPPER, 2, 1, "3.2", details={"gamma": 2})
    lower = Bound(
        BoundKind.LOWER, 1, 1, "5.1", oblivious_only=True,
        details={"gamma_dist": 2, "t": 1},
    )
    report = BoundReport(
        n=3, rounds=1, generator_count=1, upper_bounds=(upper,),
        lower_bounds=(lower, Bound(BoundKind.LOWER, 0, 1, "5.4")),
    )
    cache = CacheStats(
        hits=5, misses=3, evictions=0, entries=8,
        by_kernel=(("one_round_solvability", 2, 1), ("solvability_bounds", 3, 2)),
    )
    store = StoreStats(
        hits=4, misses=1, writes=1,
        by_kernel=(("solvability_subshard", 4, 1, 1),), seed_hits=2,
    )
    job = Job(name="sweep:n=3:0:k=1", fn=_subshard_solvable, args=(g, 3, 4096, 1))
    result = JobResult(
        name=job.name, value=True, elapsed=0.25, stats=cache,
        store_stats=store,
        store_rows=(("solvability_subshard", "1+bitset", "ab" * 32,
                     b"\x80\x05\x88.", "cd" * 32, 1.5),),
        worker="host:1",
    )
    failure = JobFailure(
        name="sweep:n=3:1:k=2", message="ValueError: boom", index=3,
        cause=ValueError("boom"), worker="host:2",
    ).sanitized()
    return [unsat, sat, report, cache, store, job, result, failure]


def test_pickles_are_pinned():
    # One digest over the protocol-5 pickles of records that are banked
    # in the store (SolvabilityResult) or travel in dist frames.  It was
    # taken when these classes were still frozen dataclasses: if it
    # changes, stored rows and frames of the other version no longer
    # read back as the same values.
    digest = hashlib.sha256()
    for obj in _pinned_records():
        digest.update(pickle.dumps(obj, protocol=5))
    assert digest.hexdigest() == (
        "ee69d0b033e28060de58289755a00080b5caab18a397239d2fa9f74f7bf5e20f"
    )
