"""The value classes behave as the dataclasses they are written to match.

Each class is compared with a dataclass of the same name, fields and
flags (frozen, slots), built here: construction by position and by
keyword, defaults, equality, hash, repr, frozen assignment, pickle and
copy.  The classes that validate keep ``__post_init__`` in their own
``__dict__``, called on construction, because the traced benchmark
patches it there.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil

import pytest

import keyscan
from keyscan.demazure import SparsePolynomial
from keyscan.jdt import LengthSwapStep
from keyscan.scanning import EwisResult
from keyscan.tableau import SkewTableau, Tableau, _Frozen, _Value
from keyscan.verify import VerifyReport

# (class, field values, dataclass flags, a field to change and its new value)
CASES = [
    (Tableau, {"columns": ((1, 2), (2,)), "n": 3}, {"frozen": True}, ("n", 4)),
    (SkewTableau, {"columns": ((1, (1, 2)), (0, (3,)))}, {"frozen": True},
     ("columns", ((0, (1, 2)),))),
    (EwisResult, {"indices": (1, 3), "values": (2, 4)}, {"frozen": True}, ("values", (2, 5))),
    (LengthSwapStep, {"j": 1, "x": 1, "d": 0, "bottom_left_before": 3,
                      "bottom_right_before": 2, "bottom_right_after": 3},
     {"slots": True}, ("d", 1)),
    (SparsePolynomial, {"nvars": 2, "terms": {(1, 0): 1, (0, 1): 2}}, {"frozen": True},
     ("terms", {(1, 1): 1})),
    (VerifyReport, {"shapes": 1, "tableaux": 2, "keys": 1, "swaps": 3,
                    "counterexamples": ["x"], "elapsed": 0.5}, {}, ("swaps", 4)),
]

IDS = [cls.__name__ for cls, *_ in CASES]


def test_every_value_class_is_a_case():
    # Import every module of the package, then walk the subclass tree.
    for module in pkgutil.iter_modules(keyscan.__path__):
        importlib.import_module(f"keyscan.{module.name}")
    found, todo = set(), [_Value]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("keyscan."):
                found.add(sub)
    assert found - {_Frozen} == {cls for cls, *_ in CASES}


def reference(cls, fields, flags):
    """A dataclass of ``cls``'s name with these fields and flags."""
    return dataclasses.make_dataclass(cls.__name__, list(fields), **flags)


@pytest.mark.parametrize("cls, fields, flags, change", CASES, ids=IDS)
def test_matches_dataclass(cls, fields, flags, change):
    obj, ref = cls(**fields), reference(cls, fields, flags)(**fields)
    assert cls(*fields.values()) == obj
    assert repr(obj) == repr(ref)
    assert obj == cls(**copy.deepcopy(fields))
    name, value = change
    assert obj != cls(**dict(fields, **{name: value}))
    assert obj != ref and obj.__eq__(ref) is NotImplemented
    try:
        want = hash(ref)
    except TypeError:  # unhashable: not frozen, or a dict field
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == want
    if flags.get("slots"):
        assert not hasattr(obj, "__dict__")
    if flags.get("frozen"):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == fields[name]
    else:
        setattr(obj, name, value)
        assert getattr(obj, name) == value


@pytest.mark.parametrize("cls, fields, flags, change", CASES, ids=IDS)
def test_pickle_and_copy(cls, fields, flags, change):
    obj = cls(**fields)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol))
               for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == obj and repr(other) == repr(obj)


def test_defaults():
    assert SparsePolynomial(3) == SparsePolynomial(nvars=3, terms={})
    assert SparsePolynomial(3).terms is not SparsePolynomial(3).terms
    report = VerifyReport()
    assert repr(report) == ("VerifyReport(shapes=0, tableaux=0, keys=0, swaps=0, "
                            "counterexamples=[], elapsed=0.0)")
    assert report.counterexamples is not VerifyReport().counterexamples


@pytest.mark.parametrize("cls, fields", [
    (Tableau, {"columns": ((1, 2),), "n": 2}),
    (SkewTableau, {"columns": ((0, (1,)),)}),
    (SparsePolynomial, {"nvars": 1, "terms": {(1,): 1}}),
])
def test_post_init_in_own_dict(monkeypatch, cls, fields):
    calls = []
    original = cls.__dict__["__post_init__"]

    def recorded(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", recorded)
    obj = cls(**fields)
    assert calls == [obj]
