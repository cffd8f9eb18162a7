"""The immutable value types: equality, hashing, repr, immutability, copying."""

import copy
import itertools
import pickle
import re

import pytest

from excol.braid import BraidWord, GarsideForm, normal_form, parse_word
from excol.collection import from_gram
from excol.markov import GWord
from excol.regions import DegreeMatrix, InequalitySystem, is_feasible
from excol.suites import Check

# (make, make a different value, repr pinned from the frozen-dataclass versions)
CASES = {
    "BraidWord": (
        lambda: parse_word("L0 R2", 4),
        lambda: parse_word("L0 R1", 4),
        "BraidWord(strands=4, letters=((0, 1), (2, -1)))",
    ),
    "GarsideForm": (
        lambda: normal_form(parse_word("L0 R2", 4)),
        lambda: normal_form(parse_word("L0", 4)),
        "GarsideForm(strands=4, infimum=-1, factors=((2, 3, 1, 0), (1, 0, 2, 3)))",
    ),
    "NumericalCollection": (
        lambda: from_gram([[1, 3], [0, 1]]),
        lambda: from_gram([[1, 2], [0, 1]]),
        "NumericalCollection(gram=((1, 3), (0, 1)), classes=((1, 0), (0, 1)))",
    ),
    "GWord": (
        lambda: GWord(("v", "w2")),
        lambda: GWord(("w2", "v")),
        "GWord(letters=('v', 'w2'))",
    ),
    "DegreeMatrix": (
        lambda: DegreeMatrix.from_rows([[0, 1], [0, 0]]),
        lambda: DegreeMatrix.from_rows([[0, 2], [0, 0]]),
        "DegreeMatrix(n=1, entries=((0, 1), (0, 0)))",
    ),
    "InequalitySystem": (
        lambda: InequalitySystem(2, [([1, -1], 0)]),
        lambda: InequalitySystem(2, [([1, -1], 1)]),
        "InequalitySystem(dimension=2, constraints="
        "(((Fraction(1, 1), Fraction(-1, 1)), Fraction(0, 1)),))",
    ),
    "FeasibilityResult": (
        lambda: is_feasible(InequalitySystem(2, [([1, -1], 0)])),
        lambda: is_feasible(InequalitySystem(2, [([1, -1], 0), ([-1, 1], 0)])),
        "FeasibilityResult(feasible=True, witness=(Fraction(0, 1), Fraction(1, 1)), "
        "certificate=None)",
    ),
    "Check": (
        lambda: Check("c", "1", "1", True),
        lambda: Check("c", "1", "2", False),
        "Check(name='c', expected='1', actual='1', passed=True)",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_and_hash_equal(name):
    make, other, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in type(a)._fields))
    assert a != other() and hash(a) != hash(other())


@pytest.mark.parametrize("name", CASES)
def test_repr_is_unchanged(name):
    make, _, pinned = CASES[name]
    assert repr(make()) == pinned


@pytest.mark.parametrize("name", CASES)
def test_fields_refuse_assignment_and_deletion(name):
    value = CASES[name][0]()
    for field in type(value)._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == CASES[name][0]()


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_round_trip(name):
    value = CASES[name][0]()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


def test_no_two_types_compare_equal():
    values = [make() for make, _, _ in CASES.values()]
    values.append(BraidWord(1))
    values.append(GWord())
    for a, b in itertools.combinations(values, 2):
        if type(a) is not type(b):
            assert a != b and not a == b


def test_slots_types_keep_no_instance_dict():
    for value in (BraidWord(4), GWord(), DegreeMatrix(0, ((0,),)),
                  InequalitySystem(2, [([1, -1], 0)])):
        assert not hasattr(value, "__dict__")


def test_sparse_rows_slot_holds_the_nonzero_entries():
    system = InequalitySystem(3, [([1, 0, -2], 0), ([0, 0, 0], 1), ([0, 5, 0], -3)])
    assert "sparse_rows" in InequalitySystem.__slots__
    assert system.sparse_rows is system.sparse_rows
    assert system.sparse_rows == (
        (((0, 1), (2, -2)), 0),
        ((), 1),
        (((1, 5),), -3),
    )


def test_braid_word_post_init_runs_once_per_construction(monkeypatch):
    # words built from outside input are checked once, a parsed word by
    # its parser's own loop; words and forms derived from checked words
    # are not checked again
    calls = []
    for cls in (BraidWord, GarsideForm):
        original = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, original=original: calls.append(1) or original(self))
    w = BraidWord(4, ((0, 1), (2, -1)))
    assert calls == [1]
    assert parse_word("L0 R2", 4) == w
    assert calls == [1]
    derived = [w * w, w.inverse(), w ** 2, w ** -3, w.free_reduce(), normal_form(w),
               normal_form(w).word()]
    assert calls == [1]
    assert derived[:5] == [BraidWord(4, letters) for letters in (
        ((0, 1), (2, -1), (0, 1), (2, -1)), ((2, 1), (0, -1)), ((0, 1), (2, -1)) * 2,
        ((2, 1), (0, -1)) * 3, ((0, 1), (2, -1)))]
    assert derived[5] == GarsideForm(4, -1, ((2, 3, 1, 0), (1, 0, 2, 3)))


def test_validation_still_runs_at_construction():
    with pytest.raises(ValueError, match="^strand count must be positive, got 0$"):
        BraidWord(0)
    with pytest.raises(ValueError, match="^unknown group letter 'x'$"):
        GWord(("x",))
    with pytest.raises(ValueError, match="^factors are not left weighted$"):
        GarsideForm(4, 0, ((1, 0, 2, 3), (0, 1, 3, 2)))
    for factor in ((1, 0), (0, 1, 2, 7), (0, 0, 1, 2)):
        with pytest.raises(ValueError, match=r"^factor .* is not a permutation of 4 strands$"):
            GarsideForm(4, 0, (factor,))
    for letter in ((0.0, 1), (0, True), (0, 1.0), (False, 1), (0, 1, 2), (0,), ()):
        with pytest.raises(ValueError, match=r"^letter .* must be a pair of ints$"):
            BraidWord(4, (letter,))
    # integer fields are ints, not floats or bools, and in range
    for make, message in (
        (lambda: BraidWord(4.0, ((0, 1),)), "strands must be an int, got 4.0"),
        (lambda: BraidWord(True, ()), "strands must be an int, got True"),
        (lambda: GarsideForm(4.0, 0, ()), "strands must be an int, got 4.0"),
        (lambda: GarsideForm(True, 0, ()), "strands must be an int, got True"),
        (lambda: GarsideForm(0, 0, ()), "strand count must be positive, got 0"),
        (lambda: GarsideForm(-1, 0, ()), "strand count must be positive, got -1"),
        (lambda: GarsideForm(4, 0.5, ()), "infimum must be an int, got 0.5"),
        (lambda: GarsideForm(4, True, ()), "infimum must be an int, got True"),
        (lambda: parse_word("L0", 4.0), "strands must be an int, got 4.0"),
        (lambda: DegreeMatrix(1.0, ((0, 0), (0, 0))), "n must be an int, got 1.0"),
        (lambda: DegreeMatrix(False, ((0,),)), "n must be an int, got False"),
        (lambda: InequalitySystem(2.5, []), "dimension must be a nonnegative int, got 2.5"),
        (lambda: InequalitySystem(True, [([1], 0)]), "dimension must be a nonnegative int, got True"),
        (lambda: InequalitySystem(-1, []), "dimension must be a nonnegative int, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()
    for index in (-1, 3):
        with pytest.raises(ValueError, match=f"^generator index {index} out of range for 4 strands$"):
            BraidWord(4, ((index, 1),))
    # list fields cannot be hashed or compared; each is refused by field name
    for make, message in (
        (lambda: BraidWord(4, [(0, 1)]), "letters must be a tuple, got list"),
        (lambda: BraidWord(4, ([0, 1],)), r"letters must hold tuples, got \[0, 1\]"),
        (lambda: GarsideForm(4, 0, [(1, 0, 2, 3)]), "factors must be a tuple, got list"),
        (lambda: GarsideForm(4, 0, ([1, 0, 2, 3],)),
         r"factors must hold tuples, got \[1, 0, 2, 3\]"),
        (lambda: GWord(["v"]), "letters must be a tuple, got list"),
        (lambda: DegreeMatrix(1, [(0, 0), (0, 0)]), "entries must be a tuple, got list"),
        (lambda: DegreeMatrix(1, ([0, 0], [0, 0])), r"entries must hold tuples, got \[0, 0\]"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()
