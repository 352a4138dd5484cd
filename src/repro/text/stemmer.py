"""Porter stemming algorithm, implemented from scratch.

The paper (Section 5.2) applies "the stemming algorithm to unify terms by
removing the suffix, such as 'ed' and 'ing'".  In 2007-era IR that means
Porter's algorithm (M.F. Porter, "An algorithm for suffix stripping",
Program 14(3), 1980).  This is a faithful implementation of the original
1980 definition — steps 1a through 5b — with no external dependencies.

The public entry points are :func:`stem` (functional) and
:class:`PorterStemmer` (reusable object, useful when a caller wants to
swap in a different stemmer implementation behind the same interface).
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("aeiou")


def _is_consonant(word: str, i: int) -> bool:
    """Return True if ``word[i]`` is a consonant in Porter's sense.

    A letter is a consonant if it is not a/e/i/o/u and is not a 'y'
    preceded by a consonant ('y' after a consonant acts as a vowel,
    e.g. the 'y' in "syzygy").
    """
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Compute Porter's *measure* m of a stem.

    Writing the stem as ``[C](VC)^m[V]`` where C is a maximal run of
    consonants and V a maximal run of vowels, m counts the VC pairs.
    E.g. m("tr") = 0, m("trouble") = 1, m("troubles") = 2.
    """
    m = 0
    i = 0
    n = len(stem)
    # Skip the optional initial consonant run.
    while i < n and _is_consonant(stem, i):
        i += 1
    # Count VC sequences.
    while i < n:
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _contains_vowel(stem: str) -> bool:
    """Return True if the stem contains at least one vowel."""
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    """Return True if the word ends with a doubled consonant (e.g. -tt)."""
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """Return True for a consonant-vowel-consonant ending where the final
    consonant is not w, x or y (the *o* condition of Porter's paper)."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


class PorterStemmer:
    """Reusable Porter stemmer.

    Words shorter than three characters are returned unchanged, as in
    Porter's reference implementation.

    The pipeline is pure, so each instance memoizes it with an
    ``lru_cache`` (as the DHT layer memoizes each key's ring position):
    corpora repeat their vocabulary constantly, and re-running
    all eight suffix steps per token dominated analysis time.
    """

    #: Bound on distinct lower-cased tokens memoized per instance.
    CACHE_SIZE = 1 << 16

    def __init__(self) -> None:
        self._cached = lru_cache(maxsize=self.CACHE_SIZE)(self._stem_uncached)

    def stem(self, word: str) -> str:
        """Return the Porter stem of *word* (lower-cased)."""
        return self._cached(word.lower())

    def cache_info(self):
        """Hit/miss statistics of the memoized pipeline."""
        return self._cached.cache_info()

    def _stem_uncached(self, word: str) -> str:
        if len(word) <= 2:
            return word
        word = self._step1a(word)
        word = self._step1b(word)
        word = self._step1c(word)
        word = self._step2(word)
        word = self._step3(word)
        word = self._step4(word)
        word = self._step5a(word)
        word = self._step5b(word)
        return word

    # -- step 1a: plurals ------------------------------------------------

    @staticmethod
    def _step1a(w: str) -> str:
        if w.endswith("sses"):
            return w[:-2]
        if w.endswith("ies"):
            return w[:-2]
        if w.endswith("ss"):
            return w
        if w.endswith("s"):
            return w[:-1]
        return w

    # -- step 1b: -ed / -ing ---------------------------------------------

    def _step1b(self, w: str) -> str:
        if w.endswith("eed"):
            if _measure(w[:-3]) > 0:
                return w[:-1]
            return w
        flag = False
        if w.endswith("ed") and _contains_vowel(w[:-2]):
            w = w[:-2]
            flag = True
        elif w.endswith("ing") and _contains_vowel(w[:-3]):
            w = w[:-3]
            flag = True
        if flag:
            if w.endswith(("at", "bl", "iz")):
                return w + "e"
            if _ends_double_consonant(w) and w[-1] not in "lsz":
                return w[:-1]
            if _measure(w) == 1 and _ends_cvc(w):
                return w + "e"
        return w

    # -- step 1c: -y -> -i -------------------------------------------------

    @staticmethod
    def _step1c(w: str) -> str:
        if w.endswith("y") and _contains_vowel(w[:-1]):
            return w[:-1] + "i"
        return w

    # -- steps 2-4: suffix tables ----------------------------------------

    _STEP2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("abli", "able"),
        ("alli", "al"), ("entli", "ent"), ("eli", "e"),
        ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
        ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
        ("iviti", "ive"), ("biliti", "ble"),
    )

    _STEP3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"),
        ("iciti", "ic"), ("ical", "ic"), ("ful", ""), ("ness", ""),
    )

    _STEP4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant",
        "ement", "ment", "ent", "ou", "ism", "ate", "iti", "ous",
        "ive", "ize",
    )

    def _step2(self, w: str) -> str:
        for suffix, replacement in self._STEP2:
            if w.endswith(suffix):
                stem = w[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return w
        return w

    def _step3(self, w: str) -> str:
        for suffix, replacement in self._STEP3:
            if w.endswith(suffix):
                stem = w[: -len(suffix)]
                if _measure(stem) > 0:
                    return stem + replacement
                return w
        return w

    def _step4(self, w: str) -> str:
        # Longest-match first: sort once by length descending.
        for suffix in sorted(self._STEP4, key=len, reverse=True):
            if w.endswith(suffix):
                stem = w[: -len(suffix)]
                if _measure(stem) > 1:
                    return stem
                return w
        # Special case: -ion only strips after s or t.
        if w.endswith("ion"):
            stem = w[:-3]
            if stem and stem[-1] in "st" and _measure(stem) > 1:
                return stem
        return w

    # -- step 5: tidy up ---------------------------------------------------

    @staticmethod
    def _step5a(w: str) -> str:
        if w.endswith("e"):
            stem = w[:-1]
            m = _measure(stem)
            if m > 1:
                return stem
            if m == 1 and not _ends_cvc(stem):
                return stem
        return w

    @staticmethod
    def _step5b(w: str) -> str:
        if _measure(w) > 1 and _ends_double_consonant(w) and w.endswith("l"):
            return w[:-1]
        return w


_SHARED = PorterStemmer()


def stem(word: str) -> str:
    """Stem a single word with the module-level shared stemmer.

    >>> stem("caresses")
    'caress'
    >>> stem("running")
    'run'
    >>> stem("relational")
    'relat'
    """
    return _SHARED.stem(word)


def stem_all(words: list[str]) -> list[str]:
    """Stem every word in a list, preserving order."""
    return [_SHARED.stem(w) for w in words]
