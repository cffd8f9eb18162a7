"""Property tests of the braid normal form; skipped when hypothesis is absent."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from excol.braid import BraidWord, is_trivial, normal_form  # noqa: E402


@st.composite
def words(draw, max_len=24):
    strands = draw(st.integers(2, 6))
    letters = draw(st.lists(
        st.tuples(st.integers(0, strands - 2), st.sampled_from((1, -1))), max_size=max_len))
    return BraidWord(strands, tuple(letters))


def relators(strands):
    """Braid and far-commutation relators, each spelling the identity."""
    rels = []
    for i in range(strands - 1):
        for j in range(i + 1, strands - 1):
            if j == i + 1:
                rels.append(((i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1)))
            else:
                rels.append(((i, 1), (j, 1), (i, -1), (j, -1)))
        rels.append(((i, 1), (i, -1)))
    return rels


@settings(max_examples=150, deadline=None)
@given(words(), st.data())
def test_relator_insertion_keeps_normal_form(w, data):
    rel = data.draw(st.sampled_from(relators(w.strands)))
    rel = BraidWord(w.strands, rel)
    if data.draw(st.booleans()):
        rel = rel.inverse()
    pos = data.draw(st.integers(0, len(w)))
    spliced = BraidWord(w.strands, w.letters[:pos] + rel.letters + w.letters[pos:])
    assert normal_form(spliced) == normal_form(w)


@settings(max_examples=150, deadline=None)
@given(words())
def test_free_reduction_keeps_normal_form(w):
    assert normal_form(w.free_reduce()) == normal_form(w)


@settings(max_examples=150, deadline=None)
@given(words())
def test_normal_form_word_round_trips(w):
    nf = normal_form(w)
    assert normal_form(nf.word()) == nf


@settings(max_examples=150, deadline=None)
@given(words())
def test_word_times_inverse_is_trivial(w):
    assert is_trivial(w * w.inverse())
