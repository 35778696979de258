"""Conjugacy classes of closed curves.

Free homotopy classes in the genus-2 surface group are handled as cyclic
words in the four marking generators, identified under rotation and
inversion.  Relator-equivalent duplicates are not quotiented (no conjugacy
solver), and nothing downstream collapses them: a class of the surface
group can appear as several free classes (ROADMAP item 3).

Word text writes generator i as the i-th letter of "abcd" and its inverse
in uppercase; this module is the one place that reads and writes it.
"""


class CurvesError(ValueError):
    pass


# generator letters of the builtin genus-2 marking; uppercase is the inverse
GENUS2_GENERATORS = "abcd"


# word letters are signed generator indices; the lexicographic order is
# a < a^-1 < b < b^-1 < ... for determinism
def _letter_key(v):
    return 2 * (abs(v) - 1) + (1 if v < 0 else 0)


def _word_key(word):
    return tuple(_letter_key(v) for v in word)


def word_from_text(text):
    """Word text: lowercase = generator, uppercase = inverse, left to right."""
    out = []
    for ch in text:
        idx = GENUS2_GENERATORS.find(ch.lower())
        if idx < 0:
            raise CurvesError("unknown generator letter %r" % ch)
        out.append(-(idx + 1) if ch.isupper() else idx + 1)
    if not out:
        raise CurvesError("empty word")
    return tuple(out)


def word_to_text(word):
    out = []
    for v in word:
        ch = GENUS2_GENERATORS[abs(v) - 1]
        out.append(ch.upper() if v < 0 else ch)
    return "".join(out)


def _as_word(cls):
    """Letters of a class given as a ConjClass, word text or letter sequence."""
    if isinstance(cls, ConjClass):
        return cls.word
    if isinstance(cls, str):
        return word_from_text(cls)
    return tuple(cls)


def _reduced_word(cls):
    """Cyclically reduced letters of a class (see `_as_word`); a ConjClass
    word is reduced by construction, so it is returned as it is."""
    if isinstance(cls, ConjClass):
        return cls.word
    return cyclic_reduce(_as_word(cls))


class ConjClass:
    """Cyclically reduced word up to rotation and inversion."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if not word:
            raise CurvesError("trivial class")
        for i, v in enumerate(word):
            if word[(i + 1) % len(word)] == -v:
                raise CurvesError("word is not cyclically reduced")
        object.__setattr__(self, "word", word)

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
    return ConjClass(_key_letters(_min_rotation(_word_key(reduced))))


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
    return [ConjClass(_key_letters(keys)) for keys in out]
