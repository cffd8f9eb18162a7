"""Property tests of the braid normal form, of mutations, of the file
format and of the command line; skipped when hypothesis is absent."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

from excol import _matrix  # noqa: E402
from excol.braid import BraidWord, GarsideForm, is_trivial, normal_form  # noqa: E402
from excol.cli import MAX_PN_N, MAX_REGION_N, MAX_STRANDS, main  # noqa: E402
from excol.collection import (  # noqa: E402
    NumericalCollection,
    _mutate,
    apply_word,
    conserves_pairing,
    from_gram,
    from_json_text,
    is_minus_kappa_unipotent,
    to_json_text,
    unipotent_grams,
)
from excol.markov import f_image, stabilizer_scan  # noqa: E402
from excol.pn import beilinson_collection  # noqa: E402
from test_markov import reference_unipotent  # noqa: E402


@st.composite
def words(draw, max_len=24, min_strands=2, max_strands=6):
    strands = draw(st.integers(min_strands, max_strands))
    letters = draw(st.lists(
        st.tuples(st.integers(0, max(strands - 2, 0)), st.sampled_from((1, -1))),
        max_size=max_len if strands > 1 else 0))
    return BraidWord(strands, tuple(letters))


def half_twist(strands):
    """D = (s0 ... s_{n-2})(s0 ... s_{n-3}) ... (s0), the empty word on one strand."""
    return BraidWord(strands, tuple((i, 1) for m in range(strands - 1, 0, -1) for i in range(m)))


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
    pos = data.draw(st.integers(0, len(w.letters)))
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
@given(words(min_strands=1, max_strands=8))
def test_word_times_inverse_is_trivial(w):
    assert is_trivial(w * w.inverse())


@settings(max_examples=150, deadline=None)
@given(words(min_strands=1, max_strands=8), st.integers(-3, 3))
def test_half_twist_power_adds_to_infimum(w, k):
    nf = normal_form(w)
    shift = k if w.strands > 1 else 0  # D is the identity on one strand
    spliced = half_twist(w.strands) ** k * w
    assert normal_form(spliced) == GarsideForm(w.strands, shift + nf.infimum, nf.factors)


# values derived from checked values skip the constructor's checks; they
# must pass those checks all the same

@settings(max_examples=150, deadline=None)
@given(words(min_strands=1, max_strands=12), st.integers(-3, 3), st.data())
def test_derived_words_and_forms_pass_their_checks(u, k, data):
    v = BraidWord(u.strands, tuple(data.draw(st.lists(
        st.tuples(st.integers(0, max(u.strands - 2, 0)), st.sampled_from((1, -1))),
        max_size=24 if u.strands > 1 else 0))))
    nf = normal_form(u)
    for value in (u * v, u.inverse(), u ** k, u.free_reduce(), nf, nf.word()):
        value.__post_init__()


@settings(max_examples=150, deadline=None)
@given(words(min_strands=4, max_strands=4))
def test_f_image_passes_its_checks(w):
    f_image(w).__post_init__()
    f_image(w).inverse().__post_init__()


# ---------------------------------------------------------------------------
# mutations of collections

@st.composite
def collections_with_forms(draw):
    """A unitriangular Gram matrix of size 2-6 (random, or a Beilinson one so
    that unipotent forms occur) with unimodular classes built from
    elementary column operations and sign changes, paired with the Euler
    form on the K group that the classes pull back to the Gram matrix."""
    size = draw(st.integers(2, 6))
    if draw(st.booleans()):
        gram = beilinson_collection(size - 1).gram
    else:
        gram = tuple(
            tuple(1 if i == j else (draw(st.integers(-4, 4)) if j > i else 0)
                  for j in range(size))
            for i in range(size)
        )
    # each column operation on the classes is undone by a row operation
    # on their inverse, applied on the left
    cols = [[int(i == j) for i in range(size)] for j in range(size)]
    inv = [[int(i == j) for j in range(size)] for i in range(size)]
    for j, k, m in draw(st.lists(st.tuples(
            st.integers(0, size - 1), st.integers(0, size - 1), st.integers(-3, 3)), max_size=8)):
        if j != k:
            cols[j] = [x + m * y for x, y in zip(cols[j], cols[k])]
            inv[k] = [x - m * y for x, y in zip(inv[k], inv[j])]
        else:
            cols[j] = [-x for x in cols[j]]
            inv[j] = [-x for x in inv[j]]
    classes = _matrix.transpose(_matrix.freeze(cols))
    inv = _matrix.freeze(inv)
    assert _matrix.mat_mul(classes, inv) == _matrix.identity(size)
    form = _matrix.mat_mul(_matrix.mat_mul(_matrix.transpose(inv), gram), inv)
    return NumericalCollection(gram, classes), form


def collections():
    return collections_with_forms().map(lambda pair: pair[0])


@settings(max_examples=150, deadline=None)
@given(collections(), st.data())
def test_left_and_right_mutations_are_inverse(c, data):
    i = data.draw(st.integers(0, c.n - 1))
    assert _mutate(_mutate(c, i, 1), i, -1) == c
    assert _mutate(_mutate(c, i, -1), i, 1) == c


@settings(max_examples=150, deadline=None)
@given(collections_with_forms(), st.data())
def test_braid_relations_act_trivially(pair, data):
    c, form = pair
    rel = BraidWord(c.strands, data.draw(st.sampled_from(relators(c.strands))))
    if data.draw(st.booleans()):
        rel = rel.inverse()
    image = apply_word(c, rel)
    assert image == c and conserves_pairing(image, form)


@settings(max_examples=150, deadline=None)
@given(collections(), st.data())
def test_apply_word_is_an_action(c, data):
    # u * v acts as v first, then u: one fused pass equals two passes
    def word():
        return BraidWord(c.strands, tuple(data.draw(st.lists(
            st.tuples(st.integers(0, c.n - 1), st.sampled_from((1, -1))), max_size=12))))

    u, v = word(), word()
    assert apply_word(c, u * v) == apply_word(apply_word(c, v), u)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 4), st.data())
def test_stabilizer_words_pass_their_checks(size, data):
    gram = tuple(
        tuple(1 if i == j else (data.draw(st.integers(-2, 2)) if j > i else 0)
              for j in range(size))
        for i in range(size)
    )
    for w in stabilizer_scan(from_gram(gram), 4):
        w.__post_init__()


@settings(max_examples=150, deadline=None)
@given(collections(), st.data())
def test_single_mutation_keeps_unipotency(c, data):
    i = data.draw(st.integers(0, c.n - 1))
    side = data.draw(st.sampled_from((1, -1)))
    assert is_minus_kappa_unipotent(_mutate(c, i, side)) == is_minus_kappa_unipotent(c)


@st.composite
def unitriangular_grams(draw, size):
    """A random unitriangular gram, or a mutated Beilinson one (unipotent for even size)."""
    if size > 1 and draw(st.booleans()):
        letters = draw(st.lists(
            st.tuples(st.integers(0, size - 2), st.sampled_from((1, -1))), max_size=6))
        return apply_word(beilinson_collection(size - 1), BraidWord(size, tuple(letters))).gram
    return tuple(
        tuple(1 if i == j else (draw(st.integers(-3, 3)) if j > i else 0) for j in range(size))
        for i in range(size)
    )


@st.composite
def gram_lists(draw):
    """Grams of one size drawn from a small pool, so that some repeat."""
    pool = draw(st.lists(unitriangular_grams(draw(st.integers(1, 6))), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=150, deadline=None)
@given(gram_lists())
def test_batched_kernel_matches_reference(grams):
    assert unipotent_grams(grams) == [reference_unipotent(g) for g in grams]


# ---------------------------------------------------------------------------
# the collection file format

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=30,
)


@st.composite
def near_files(draw):
    """Payloads shaped like collection files; a few fields get values of any
    JSON type, a wrong size or go missing, the rest are well formed."""
    def corrupt():
        return draw(st.integers(0, 5)) == 0

    n = draw(st.integers(0, 4))
    size = n + 1 + (draw(st.integers(-1, 1)) if corrupt() else 0)
    entry = json_values if corrupt() else st.integers(-3, 3)
    gram = [[draw(entry) if j > i else int(i == j) for j in range(size)] for i in range(size)]
    identity = [[int(i == j) for j in range(size)] for i in range(size)]
    classes = draw(st.sampled_from(("identity", identity))
                   | st.lists(st.lists(entry, min_size=size, max_size=size),
                              min_size=size, max_size=size))
    payload = {"n": draw(json_values) if corrupt() else n, "gram": gram, "classes": classes}
    if corrupt():
        del payload[draw(st.sampled_from(sorted(payload)))]
    return payload


@settings(max_examples=200, deadline=None)
@given(json_values | near_files())
def test_from_json_text_raises_only_value_error(value):
    try:
        c = from_json_text(json.dumps(value))
    except ValueError:
        return
    text = to_json_text(c)
    back = from_json_text(text)
    assert back == c and to_json_text(back) == text


@settings(max_examples=100, deadline=None)
@given(collections())
def test_accepted_file_round_trips(c):
    text = to_json_text(c)
    back = from_json_text(text)
    assert back == c and to_json_text(back) == text


# ---------------------------------------------------------------------------
# command-line argv

FILES = {
    "b3.json": to_json_text(beilinson_collection(3)),
    "id2.json": '{"n":1,"gram":[[1,0],[0,1]],"classes":"identity"}\n',
    "float.json": '{"n":1,"gram":[[1,2.5],[0,1]],"classes":"identity"}\n',
    "bad.json": '{"n":1,"gram":',
}


def usually(valid, invalid):
    """Draws from ``valid``, and one time in eight from ``invalid``."""
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 0 else valid)


small = usually(st.integers(0, 3), st.just(-1))
fmt = usually(st.sampled_from(("text", "json")), st.just("xml"))
word_text = st.lists(usually(
    st.sampled_from(("L0", "L1", "L2", "R0", "R1", "R2", "s1", "s0^-1")),
    st.sampled_from(("L7", "X", "L\u0660", "L\u00b2", "s\u0661^-1",  # non-ASCII digits
                     "L" + "1" * 5000, "L" + "0" * 5000 + "1")),  # past CPython's digit limit
), max_size=6).map(" ".join)
six = usually(
    st.lists(small, min_size=6, max_size=6).map(lambda xs: ",".join(map(str, xs))),
    st.just("1,2,3") | st.text(max_size=6),
)


def size(bound):
    """A small size, and one time in eight a value above ``bound``, which
    the command rejects before it allocates anything."""
    return usually(st.integers(-1, 6), st.integers(bound + 1, 10**30))


def opt(draw, flag, values):
    """``[flag, value]`` or nothing."""
    return [flag, str(draw(values))] if draw(st.booleans()) else []


@st.composite
def argvs(draw, folder):
    """argv for every subcommand with small, mostly valid values, sometimes
    broken by a dropped or an extra token.  ``verify`` runs only its cheap
    suites; depth and ``--max-len`` stay small so nothing enumerates for
    long, and a size option is small or above its bound."""
    path = lambda: str(folder / draw(usually(
        st.sampled_from(("b3.json", "id2.json")),
        st.sampled_from(("float.json", "bad.json", "missing.json")),
    )))
    out = ["-o", str(folder / "out.json")]
    cmd = draw(st.sampled_from(
        ("mutate", "verify", "orbit", "stabilizer", "region", "braid", "pn", "nope")))
    if cmd == "mutate":
        argv = [cmd, path(), "--word", draw(word_text)] + out + opt(draw, "--format", fmt)
    elif cmd == "verify":
        argv = [cmd, draw(usually(st.sampled_from(("braid", "regions", "pn")), st.just("nope")))]
        argv += opt(draw, "--seed", small) + opt(draw, "--format", fmt)
    elif cmd == "orbit":
        seed = draw(usually(
            st.sampled_from(("file", "tuple")), st.sampled_from(("both", "neither"))))
        argv = [cmd] + ([path()] if seed in ("file", "both") else [])
        argv += ["--tuple", draw(six)] if seed in ("tuple", "both") else []
        argv += ["--depth", str(draw(small))] + opt(draw, "--cap", small.map(lambda k: 10 * k))
        argv += opt(draw, "--eq2-variant", usually(
            st.sampled_from(("printed", "corrected")), st.just("x")))
        argv += opt(draw, "--format", fmt)
    elif cmd == "stabilizer":
        argv = [cmd, path(), "--max-len", str(draw(small))]
        argv += opt(draw, "--cap", small.map(lambda k: 10 * k))
    elif cmd == "region":
        argv = [cmd, draw(usually(st.sampled_from(("lemma41", "thm51", "strong")), st.just("x")))]
        argv += opt(draw, "--kidx", small) + opt(draw, "--n", size(MAX_REGION_N))
        argv += opt(draw, "--format", fmt)
    elif cmd == "braid":
        argv = [cmd, draw(usually(st.just("nf"), st.just("x"))), draw(word_text)]
        argv += opt(draw, "--strands", size(MAX_STRANDS)) + opt(draw, "--format", fmt)
    elif cmd == "pn":
        argv = [cmd, "gram"] + opt(draw, "--n", size(MAX_PN_N))
        argv += out if draw(st.booleans()) else []
    else:
        argv = [cmd]
    if draw(st.integers(0, 7)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ("--depth", "--format", "--zzz", "7", "-1", "L0", "--help"))))
    return argv


@pytest.fixture(scope="module")
def cli_folder(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_exits_0_1_or_2(cli_folder, data):
    for name, text in FILES.items():  # every example starts from the same files
        (cli_folder / name).write_text(text)
    argv = data.draw(argvs(cli_folder))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
    except SystemExit as exc:
        status = exc.code
    assert status in (0, 1, 2)
