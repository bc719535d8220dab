"""The one constructor every record shares, checked on each record class."""

import copy
import importlib
import pickle
from math import inf
from pathlib import Path

import pytest

from fmc.genfun import FormalDecomposition, multiplicity_table
from fmc.oracle import CheckResult
from fmc.polyseries import IntPoly
from fmc.record import Record
from fmc.theory import (
    Z_GROUP,
    GradedTable,
    GroupDescriptor,
    SpaceDescriptor,
    Theory,
    builtin_space,
)

# Every module is loaded, so every record class is a known subclass.
for _path in (Path(__file__).resolve().parents[1] / "src" / "fmc").glob("*.py"):
    importlib.import_module("fmc" if _path.stem == "__init__" else f"fmc.{_path.stem}")


def _any_index(p, k, e=inf):
    # A module-level rule, so that the sample theory pickles.
    return True


SAMPLES = {
    IntPoly: IntPoly([1, 2, 1]),
    FormalDecomposition: multiplicity_table(3, 2),
    CheckResult: CheckResult("a", {"n": 1}, True, "ok"),
    Theory: Theory("t", False, True, "zero", "T_{k}({X})", "T_{{{k}}}({X})", "", _any_index, ""),
    GroupDescriptor: GroupDescriptor(1, (2, 4), ("a",)),
    GradedTable: GradedTable({(0, 0): Z_GROUP}),
    SpaceDescriptor: builtin_space("p1", "lawson"),
}


def _record_classes():
    found, pending = [], [Record]
    while pending:
        subclasses = pending.pop().__subclasses__()
        found += subclasses
        pending += subclasses
    return sorted(found, key=lambda cls: cls.__qualname__)


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__qualname__)
def test_record_constructor(cls):
    # Fields go in slot order, by position and then by name, each once; only
    # a field that the record's own __init__ gives a default may be left out.
    sample = SAMPLES[cls]
    slots, fields = cls.__slots__, sample._fields()
    named = dict(zip(slots, fields))
    assert cls(*fields) == cls(**named) == cls(*fields[:1], **dict(zip(slots[1:], fields[1:])))
    assert cls(*fields) == sample
    own = vars(cls).get("__init__")
    defaults = own.__defaults__ or () if own else ()
    for missing in slots[: len(slots) - len(defaults)]:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in named.items() if name != missing})
    extra, repeated, unknown = (None,), {slots[0]: fields[0]}, {"extra": 1}
    for values, names in ((fields + extra, {}), (fields, repeated), (fields, unknown)):
        with pytest.raises(TypeError):
            cls(*values, **names)
    assert copy.deepcopy(sample) == sample == pickle.loads(pickle.dumps(sample))
