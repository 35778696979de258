import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from teichlab import curves
from teichlab.curves import (
    ConjClass, CurvesError, canonical_cyclic_form, cyclic_reduce,
    enumerate_conj_classes,
)


def test_cyclic_reduce_basic():
    assert cyclic_reduce((1, -1)) == ()
    assert cyclic_reduce((1, 2, -2, 3)) == (1, 3)
    # reduction around the cycle
    assert cyclic_reduce((1, 2, 3, -1)) == (2, 3)


def test_canonical_rotation_invariance():
    w = (1, 2, -1, 2)
    forms = set()
    for i in range(4):
        forms.add(canonical_cyclic_form(w[i:] + w[:i]).word)
    assert len(forms) == 1


def test_canonical_inversion_invariance():
    rng = random.Random(31)
    for _ in range(200):
        w = random_reduced_word(rng, rng.randint(1, 8))
        inv = tuple(-v for v in reversed(w))
        assert canonical_cyclic_form(w) == canonical_cyclic_form(inv)


def test_trivial_class_raises():
    with pytest.raises(CurvesError, match="trivial"):
        canonical_cyclic_form((1, -1))
    with pytest.raises(CurvesError, match="trivial"):
        ConjClass(())


def test_conj_class_rejects_unreduced():
    with pytest.raises(CurvesError):
        ConjClass((1, -1, 2))
    with pytest.raises(CurvesError):
        ConjClass((1, 2, -1))  # cancels around the cycle


def random_reduced_word(rng, n):
    letters = [v for i in range(1, 5) for v in (i, -i)]
    w = []
    while len(w) < n:
        v = rng.choice(letters)
        if w and w[-1] == -v:
            continue
        w.append(v)
    return tuple(w)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4]),
                min_size=1, max_size=10))
def test_canonical_idempotent(letters):
    try:
        c = canonical_cyclic_form(tuple(letters))
    except CurvesError:
        return
    again = canonical_cyclic_form(c.word)
    assert again.word == c.word


def test_enumerate_base_case():
    classes = enumerate_conj_classes(2, 1)
    assert [c.word for c in classes] == [(1,), (2,), (3,), (4,)]


def orbit_count_oracle(max_len):
    """Count rotation/inversion orbits by explicit orbit sets."""
    letters = [v for i in range(1, 5) for v in (i, -i)]
    orbits = set()
    for n in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            if any(tup[(i + 1) % n] == -tup[i] for i in range(n)):
                continue
            inv = tuple(-v for v in reversed(tup))
            orbit = frozenset(w[i:] + w[:i] for w in (tup, inv)
                              for i in range(n))
            orbits.add(orbit)
    return len(orbits)


def test_enumerate_matches_orbit_oracle_len4():
    assert len(enumerate_conj_classes(2, 4)) == orbit_count_oracle(4)


def test_enumerate_matches_orbit_oracle_len6():
    assert len(enumerate_conj_classes(2, 6)) == orbit_count_oracle(6)


def test_enumerate_deterministic_and_sorted():
    a = enumerate_conj_classes(2, 4)
    b = enumerate_conj_classes(2, 4)
    assert [c.word for c in a] == [c.word for c in b]
    keys = [(len(c.word), curves._word_key(c.word)) for c in a]
    assert keys == sorted(keys)


def test_enumerate_emits_cyclically_reduced():
    for c in enumerate_conj_classes(2, 5):
        assert cyclic_reduce(c.word) == c.word
        assert canonical_cyclic_form(c.word).word == c.word


def test_enumerate_budget_error():
    with pytest.raises(CurvesError, match="budget"):
        enumerate_conj_classes(2, 14)
    with pytest.raises(CurvesError):
        enumerate_conj_classes(3, 4)


def test_parse_and_format_word():
    assert curves.word_from_text("aBcD") == (1, -2, 3, -4)
    assert curves.word_to_text((1, -2, 3, -4)) == "aBcD"
    with pytest.raises(CurvesError, match="unknown generator letter 'x'"):
        curves.word_from_text("ax")
    with pytest.raises(CurvesError, match="empty word"):
        curves.word_from_text("")


def test_word_text_round_trip():
    w = (1, -2, 3, -4)
    assert curves.word_to_text(w) == "aBcD"
    assert curves._as_word("aBcD") == w


# --- pants words ---------------------------------------------------------------

def quadratic_run_oracle(letters):
    """All maximal alternating windows, found by brute-force window checks."""
    n = len(letters)
    windows = []
    for i in range(n):
        for j in range(i + 2, n + 1):
            seg = letters[i:j]
            if any(seg[k] != seg[k - 2] for k in range(2, len(seg))):
                continue
            left_ext = i > 0 and letters[i - 1] == letters[i + 1]
            right_ext = j < n and letters[j] == letters[j - 2]
            if not left_ext and not right_ext:
                windows.append((i, j))
    return windows
