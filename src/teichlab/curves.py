"""Conjugacy classes of closed curves and reduced pants-reflection words.

Free homotopy classes in the genus-2 surface group are handled as cyclic
words in the four marking generators, identified under rotation and
inversion.  Relator-equivalent duplicates are not quotiented (no conjugacy
solver); downstream experiments collapse them by length/rotation
fingerprints instead.

Pants words live in the reflection group <x, y, z | x^2 = y^2 = z^2 = e>:
reduced means no letter twice in a row, and closed geodesics correspond to
cyclic words that are not pure powers of a two-letter alternation.
"""

import itertools

from . import surface


class CurvesError(ValueError):
    pass


# word letters are signed generator indices; the lexicographic order is
# a < a^-1 < b < b^-1 < ... for determinism
def _letter_key(v):
    return 2 * (abs(v) - 1) + (1 if v < 0 else 0)


def _word_key(word):
    return tuple(_letter_key(v) for v in word)


def word_to_text(word):
    return surface.format_word(word)


def _as_word(cls):
    """Letters of a class given as a ConjClass, word text or letter sequence."""
    if isinstance(cls, ConjClass):
        return cls.word
    if isinstance(cls, str):
        return surface.parse_word(cls)
    return tuple(cls)


class ConjClass:
    """Cyclically reduced word up to rotation and inversion."""

    __slots__ = ("word", "canonical")

    def __init__(self, word, canonical=False):
        word = tuple(word)
        if not word:
            raise CurvesError("trivial class")
        for i, v in enumerate(word):
            if word[(i + 1) % len(word)] == -v:
                raise CurvesError("word is not cyclically reduced")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "canonical", bool(canonical))

    def __setattr__(self, *a):
        raise AttributeError("ConjClass is immutable")

    def __len__(self):
        return len(self.word)

    def __eq__(self, other):
        return isinstance(other, ConjClass) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return "ConjClass(%s)" % word_to_text(self.word)

    def text(self):
        return word_to_text(self.word)


def cyclic_reduce(word):
    """Free reduction followed by reduction around the cycle."""
    stack = []
    for v in word:
        if v == 0:
            raise CurvesError("0 is not a generator index")
        if stack and stack[-1] == -v:
            stack.pop()
        else:
            stack.append(v)
    while len(stack) >= 2 and stack[0] == -stack[-1]:
        stack = stack[1:-1]
    return tuple(stack)


def _min_rotation(keys):
    """Least rotation of a letter-key tuple or of its inverse's.

    The key of a letter's inverse is its own key with the low bit flipped.
    """
    n = len(keys)
    inv = tuple(k ^ 1 for k in reversed(keys))
    return min(w[i:] + w[:i] for w in (keys, inv) for i in range(n))


def _key_letters(keys):
    return tuple(-(k // 2 + 1) if k & 1 else k // 2 + 1 for k in keys)


def canonical_cyclic_form(word):
    """Lexicographically minimal rotation of the word or its inverse."""
    reduced = cyclic_reduce(word)
    if not reduced:
        raise CurvesError("trivial class")
    return ConjClass(_key_letters(_min_rotation(_word_key(reduced))),
                     canonical=True)


_ENUM_BUDGET = 5_000_000


def enumerate_conj_classes(genus, max_len):
    """All conjugacy classes of cyclically reduced words up to max_len.

    Deterministic and sorted by (length, lexicographic key).  Words equal
    in the surface group through the relator are counted separately.

    Each class is listed by its canonical word, so only canonical words are
    kept.  A canonical word starts with its least letter key among itself
    and its inverse, which is an uninverted generator g, and no letter of
    it names a generator below g; the walk over reduced key tuples only
    extends prefixes of that shape.
    """
    if genus != 2:
        raise CurvesError("only the builtin genus-2 presentation is wired up")
    if max_len < 1:
        raise CurvesError("max_len must be at least 1")
    rank = 2 * genus
    estimate = sum(2 * rank * (2 * rank - 1) ** (n - 1)
                   for n in range(1, max_len + 1))
    if estimate > _ENUM_BUDGET:
        raise CurvesError(
            "max_len %d needs ~%d reduced words, over the enumeration budget"
            % (max_len, estimate))

    out = []

    def extend(keys):
        # cyclically reduced, and the least rotation of the class
        if keys[-1] != keys[0] ^ 1 and _min_rotation(keys) == keys:
            out.append(keys)
        if len(keys) == max_len:
            return
        back = keys[-1] ^ 1
        for k in range(keys[0], 2 * rank):
            if k != back:
                extend(keys + (k,))

    for first in range(0, 2 * rank, 2):
        extend((first,))
    out.sort(key=lambda keys: (len(keys), keys))
    return [ConjClass(_key_letters(keys), canonical=True) for keys in out]


# --- words in the pants reflection group --------------------------------------

_PANTS_LETTERS = "xyz"
_PAIR_TAGS = {frozenset("xy"): "xy", frozenset("yz"): "yz",
              frozenset("zx"): "zx"}


class PantsWord:
    """Reduced word over {x, y, z}: no letter twice consecutively."""

    __slots__ = ("letters", "cyclic")

    def __init__(self, letters, cyclic=False):
        letters = tuple(letters)
        if not letters:
            raise CurvesError("empty pants word")
        for ch in letters:
            if ch not in _PANTS_LETTERS:
                raise CurvesError("letters must be x, y or z")
        for u, v in zip(letters, letters[1:]):
            if u == v:
                raise CurvesError("word is not reduced")
        if cyclic and len(letters) > 1 and letters[0] == letters[-1]:
            raise CurvesError("cyclic word must not repeat around the cycle")
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "cyclic", bool(cyclic))

    def __setattr__(self, *a):
        raise AttributeError("PantsWord is immutable")

    def __len__(self):
        return len(self.letters)

    def text(self):
        return "".join(self.letters)


def pants_word_runs(w):
    """Maximal two-letter alternating runs of a reduced pants word.

    Returns (runs, peripheral): runs are (pair tag, half-length) with
    half-length = letters/2, so (xy)^n scores n; adjacent runs overlap in
    one shared letter.  A cyclic word alternating exactly two letters is a
    power of a boundary element and is flagged peripheral.
    """
    letters = w.letters
    n = len(letters)
    if n == 1:
        return [], False
    if w.cyclic:
        if len(set(letters)) == 2:
            # fully alternating; reduced cyclic two-letter words have even
            # length, giving a whole number of pairs
            tag = _PAIR_TAGS[frozenset(letters)]
            return [(tag, n / 2.0)], True
        # break the cycle at a position where the alternation fails
        start = next(i for i in range(n)
                     if letters[(i + 2) % n] != letters[i])
        seq = [letters[(start + 1 + j) % n] for j in range(n + 1)]
    else:
        seq = list(letters)
    runs = []
    seg = 0
    for i in range(2, len(seq) + 1):
        if i == len(seq) or seq[i] != seq[i - 2]:
            runs.append((_PAIR_TAGS[frozenset(seq[seg:seg + 2])],
                         (i - seg) / 2.0))
            seg = i - 1
            if i == len(seq):
                break
    return runs, False


def pants_boundary_word(label, power=1):
    """Cyclic pants word of a boundary element power: a=yz, b=zx, c=xy."""
    pair = {"a": "yz", "b": "zx", "c": "xy"}.get(label)
    if pair is None or power < 1:
        raise CurvesError("label must be a, b or c with positive power")
    return PantsWord(pair * power, cyclic=True)


def reduced_pants_words(max_len, cyclic=False):
    """All reduced (optionally cyclically reduced) pants words up to max_len."""
    out = []
    for n in range(1, max_len + 1):
        for tup in itertools.product(_PANTS_LETTERS, repeat=n):
            try:
                out.append(PantsWord(tup, cyclic=cyclic))
            except CurvesError:
                continue
    return out
