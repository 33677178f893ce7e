"""The value records' behaviour, pinned class by class: equality, hashing,
repr, frozenness, keyword construction, copying and pickling."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import affine_insertion
from affine_insertion.affperm import identity, simple_reflection
from affine_insertion.chains import StripChain
from affine_insertion.insertion import BoundedMatrix
from affine_insertion.localrule import (
    AuditStep,
    CaseTag,
    EndpointMismatch,
    FinalPair,
    InitialPair,
    InitialTriple,
    PreconditionViolation,
)
from affine_insertion.oracles import StrongCoverOnCores
from affine_insertion.strong import InvalidStrongStrip, MarkedStrongCover, NotACover, StrongStrip, StrongTableau
from affine_insertion.symfunc import (
    CauchyReport,
    PieriReport,
    SpinPolynomial,
    SymmetryReport,
    SymPolynomial,
    WeightPolynomial,
)
from affine_insertion.weak import InvalidStrip, WeakStrip, WeakTableau

E = identity(3)
S1 = simple_reflection(3, 1)
COVER = MarkedStrongCover(E, 1, 2, None, 1)
STRONG = StrongStrip(E, (COVER,))
WEAK = WeakStrip(E, frozenset({1}), S1)
FINAL = FinalPair(WeakStrip(E, frozenset(), E), StrongStrip(E, ()))

COVER_TEXT = "MarkedStrongCover([1,2,3] --(1,2)@2--> [2,1,3])"
STRONG_TEXT = "StrongStrip([1,2,3] --(1,2)@2--> [2,1,3])"
WEAK_TEXT = "WeakStrip([1,2,3] --[1]--> [2,1,3])"
E_TEXT = "AffinePermutation(3, [1, 2, 3])"
INITIAL_TEXT = f"InitialPair(weak={WEAK_TEXT}, strong={STRONG_TEXT})"
FINAL_TEXT = "FinalPair(weak=WeakStrip([1,2,3] --[]--> [1,2,3]), strong=StrongStrip([1,2,3]))"

# name -> (instance, its field names in constructor order, its repr)
RECORDS = {
    "MarkedStrongCover": (COVER, ("inside", "i", "j", "outside", "l"), COVER_TEXT),
    "StrongStrip": (STRONG, ("inside", "covers"), STRONG_TEXT),
    "WeakStrip": (WEAK, ("inside", "residues", "outside"), WEAK_TEXT),
    "StripChain": (
        StripChain(E, (WEAK,)),
        ("inside", "strips"),
        f"StripChain(inside={E_TEXT}, strips=({WEAK_TEXT},))",
    ),
    "StrongTableau": (
        StrongTableau(E, (STRONG,)),
        ("inside", "strips"),
        f"StrongTableau(inside={E_TEXT}, strips=({STRONG_TEXT},))",
    ),
    "WeakTableau": (
        WeakTableau(E, (WEAK, WeakStrip(S1, (), S1))),
        ("inside", "strips"),
        f"WeakTableau(inside={E_TEXT}, strips=({WEAK_TEXT},))",
    ),
    "BoundedMatrix": (BoundedMatrix({(1, 2): 3, (2, 1): 0}), ("entries",), "BoundedMatrix(entries={(1, 2): 3})"),
    "InitialPair": (InitialPair(WEAK, STRONG), ("weak", "strong"), INITIAL_TEXT),
    "FinalPair": (FINAL, ("weak", "strong"), FINAL_TEXT),
    "InitialTriple": (
        InitialTriple(WEAK, STRONG, 1),
        ("weak", "strong", "e"),
        f"InitialTriple(weak={WEAK_TEXT}, strong={STRONG_TEXT}, e=1)",
    ),
    "AuditStep": (
        AuditStep(CaseTag.X, InitialPair(WEAK, STRONG), FINAL),
        ("case", "before", "after"),
        f"AuditStep(case=<CaseTag.X: 'X'>, before={INITIAL_TEXT}, after={FINAL_TEXT})",
    ),
    "StrongCoverOnCores": (
        StrongCoverOnCores((1,), (2,), 0, 1, (((0, 1),),), (1,)),
        ("inside", "outside", "r", "s", "components", "head_diagonals"),
        "StrongCoverOnCores(inside=(1,), outside=(2,), r=0, s=1, components=(((0, 1),),), head_diagonals=(1,))",
    ),
    "SymmetryReport": (
        SymmetryReport(False, (((2,), (1, 1), 1, 0),)),
        ("symmetric", "failures"),
        "SymmetryReport(symmetric=False, failures=(((2,), (1, 1), 1, 0),))",
    ),
    "WeightPolynomial": (
        WeightPolynomial(2, {(2,): 1, (1, 1): 2}),
        ("degree", "coeffs"),
        "WeightPolynomial(degree=2, coeffs={(2,): 1, (1, 1): 2})",
    ),
    "SymPolynomial": (
        SymPolynomial(2, {(2,): 1, (1, 1): 0}),
        ("degree", "coeffs"),
        "SymPolynomial(degree=2, coeffs={(2,): 1})",
    ),
    "SpinPolynomial": (
        SpinPolynomial(2, {((2,), 0): 1, ((1, 1), 1): 2}),
        ("degree", "coeffs"),
        "SpinPolynomial(degree=2, coeffs={((2,), 0): 1, ((1, 1), 1): 2})",
    ),
    "CauchyReport": (CauchyReport(True, 4), ("ok", "checked", "mismatches"), "CauchyReport(ok=True, checked=4, mismatches=())"),
    "PieriReport": (
        PieriReport(False, "strong", 3, (((3,), 1, 2),)),
        ("ok", "variant", "degree", "mismatches"),
        "PieriReport(ok=False, variant='strong', degree=3, mismatches=(((3,), 1, 2),))",
    ),
}
CASES = [pytest.param(*case, id=name) for name, case in RECORDS.items()]


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


def test_every_record_class_is_pinned():
    assert len(RECORDS) == 18
    assert all(type(record).__name__ == name for name, (record, _, _) in RECORDS.items())


@pytest.mark.parametrize("record, names, text", CASES)
def test_equality_hash_and_repr(record, names, text):
    values = _values(record, names)
    same = type(record)(**dict(zip(names, values)))  # keyword construction by the field names
    assert same == record and not same != record and same is not record
    assert record != values and record != object()
    try:
        expected = hash(values)
    except TypeError:  # a dict field: unhashable, as the record is
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(same) == expected
    assert repr(record) == repr(same) == text


@pytest.mark.parametrize("record, names, text", CASES)
def test_records_are_frozen(record, names, text):
    before = _values(record, names)
    for name in (names[0], names[-1], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert _values(record, names) == before and repr(record) == text


@pytest.mark.parametrize("record, names, text", CASES)
def test_copy_and_pickle_give_equal_records(record, names, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text
        assert _values(twin, names) == _values(record, names)


def test_equality_needs_the_same_class():
    chain = StripChain(E, (WEAK,))
    assert chain != WeakTableau(E, (WEAK,)) and WeakTableau(E, (WEAK,)) != chain
    assert StrongTableau(E, ()) != WeakTableau(E, ())
    assert InitialPair(FINAL.weak, FINAL.strong) != FINAL  # equal field tuples, other classes
    assert CauchyReport(True, 0) != SymmetryReport(True, ())


def test_cover_equality_ignores_its_mark():
    twin = MarkedStrongCover(E, 1, 2, S1, 1)
    assert twin == COVER and twin.mark == COVER.mark == 2
    object.__setattr__(twin, "mark", 7)
    assert twin == COVER and hash(twin) == hash(COVER) == hash((E, 1, 2, S1, 1))
    for copied in (copy.copy(COVER), copy.deepcopy(COVER), pickle.loads(pickle.dumps(COVER))):
        assert copied.mark == 2 and copied.spin == COVER.spin


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only the package's own imports count
    code = "import sys, affine_insertion, affine_insertion.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(affine_insertion.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


HOT_RECORDS = ("WeakStrip", "MarkedStrongCover", "StrongStrip", "FinalPair", "InitialPair", "InitialTriple", "AuditStep")


@pytest.mark.parametrize("name", HOT_RECORDS)
def test_slot_setters_are_the_slot_descriptors(name):
    # each slot a class declares has its setter, the descriptor's own __set__
    cls = type(RECORDS[name][0])
    slots = cls.__dict__["__slots__"]
    assert set(RECORDS[name][1]) <= set(slots)
    for slot in slots:
        assert getattr(cls, f"_set_{slot}").__self__ is cls.__dict__[slot]


def _records_of_a_run():
    """Every record one forward and one reverse run build, with the strips and
    covers inside them: the pairs, the audit steps, the strips and covers."""
    from affine_insertion.localrule import phi_with_audit, psi_with_audit

    triple = InitialTriple(WEAK, STRONG, 1)
    final, steps = phi_with_audit(triple, 1)
    back, rsteps = psi_with_audit(final, 1)
    assert back == triple
    out = [triple, final, back]
    for step in steps + rsteps:
        out += [step, step.before, step.after]
    for pair in list(out[1:]):
        if not isinstance(pair, AuditStep):
            out += [pair.weak, pair.strong, *pair.strong.covers]
    return out


def test_records_of_a_run_are_frozen_equal_and_hashed_as_rebuilt():
    # what a run stores through the slot setters equals a rebuild through
    # the constructor, field for field, and refuses assignment
    records = _records_of_a_run()
    assert {type(r).__name__ for r in records} == set(HOT_RECORDS)
    for record in records:
        names = type(record)._fields
        same = type(record)(**dict(zip(names, _values(record, names))))
        assert same == record and hash(same) == hash(record) == hash(_values(record, names))
        if isinstance(record, MarkedStrongCover):
            assert same.mark == record.mark
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, names[0])


class _Forged:
    """Pickles as the record class called with the given arguments: the
    stream a pickle of a record with tampered fields would hold."""

    def __init__(self, cls, args):
        self.cls, self.args = cls, args

    def __reduce__(self):
        return self.cls, self.args


S0 = simple_reflection(3, 0)
# name -> (tampered constructor arguments, the error and message the constructor raises)
TAMPERED = {
    "WeakStrip": ((E, frozenset({1}), E), InvalidStrip, "is not a weak strip for A=[1]"),
    "MarkedStrongCover": ((E, 1, 2, S0, 1), NotACover, "outside element does not match w * t_ij"),
    "StrongStrip": ((S1, (COVER,)), InvalidStrongStrip, "covers do not chain"),
    "FinalPair": ((WEAK, StrongStrip(E, ())), EndpointMismatch, "final pair must share its outside element"),
    "InitialPair": ((WeakStrip(S1, (), S1), STRONG), EndpointMismatch, "initial pair must share its inside element"),
    "InitialTriple": ((WEAK, STRONG, 2), PreconditionViolation, "need size(W) + e < n, got 1 + 2 vs n=3"),
}


@pytest.mark.parametrize("name", sorted(TAMPERED))
def test_tampered_pickle_raises_the_constructor_error(name):
    args, error, message = TAMPERED[name]
    cls = type(RECORDS[name][0])
    with pytest.raises(error) as info:
        pickle.loads(pickle.dumps(_Forged(cls, args)))
    assert type(info.value) is error and message in str(info.value)
    assert pickle.loads(pickle.dumps(_Forged(cls, _values(RECORDS[name][0], RECORDS[name][1])))) == RECORDS[name][0]
