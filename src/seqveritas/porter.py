"""Porter stemming algorithm (1980), steps 1a through 5b.

`stem` returns a token unchanged when it is not alphabetic (so tokens with
digits pass through) or has 2 letters or fewer, per the original
algorithm, and stems every other token. Each step is a function from a
word to a word; a suffix's stem is the word with that suffix cut off.

The suffix tables of steps 2, 3 and 4 are grouped by the suffix's final
letter at import time, and each word tries only the group of its own final
letter. Step 5 measures m on the whole word before dropping a final "e".
That is the measure the original takes on the stem, since a trailing vowel
adds no VC pair.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _cv(word):
    """The word's pattern of "c" (consonant) and "v" (vowel), one letter
    each. A "y" is a vowel after a consonant and a consonant elsewhere."""
    out = []
    prev = "v"
    for ch in word:
        prev = "v" if ch in _VOWELS or (ch == "y" and prev == "c") else "c"
        out.append(prev)
    return "".join(out)


def _m(word):
    """The measure m: the number of VC runs in [C](VC)^m[V]."""
    return _cv(word).count("vc")


def _double_c(word):
    """Ends in a double consonant."""
    return len(word) > 1 and word[-1] == word[-2] and _cv(word)[-1] == "c"


def _cvc(word):
    """Ends consonant-vowel-consonant, the final consonant not w, x or y."""
    return _cv(word)[-3:] == "cvc" and word[-1] not in "wxy"


def _by_last_letter(table):
    """Group (suffix, replacement) pairs by the suffix's final letter,
    keeping table order within each group.

    Only the group of the word's final letter can match, and two suffixes
    with different final letters never both match, so trying that group
    alone finds the same first match as scanning the whole table.
    """
    groups = {}
    for suf, rep in table:
        groups.setdefault(suf[-1], []).append((suf, rep))
    return groups


_STEP2 = _by_last_letter([
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("bli", "ble"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
    ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"), ("logi", "log"),
])

_STEP3 = _by_last_letter([
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
])

_STEP4 = _by_last_letter([
    (suf, "") for suf in (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize")
])


def _step1ab(word):
    if word.endswith("sses") or word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    if word.endswith("eed"):
        return word[:-1] if _m(word[:-3]) > 0 else word
    for suf in ("ed", "ing"):
        stem = word[:-len(suf)]
        if word.endswith(suf) and "v" in _cv(stem):
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if _double_c(stem):
                return stem if stem[-1] in "lsz" else stem[:-1]
            return stem + "e" if _m(stem) == 1 and _cvc(stem) else stem
    return word


def _step1c(word):
    if word.endswith("y") and "v" in _cv(word[:-1]):
        return word[:-1] + "i"
    return word


def _map_suffix(word, table):
    """Steps 2 and 3: replace the first matching suffix when m > 0."""
    for suf, rep in table.get(word[-1], ()):
        if word.endswith(suf):
            stem = word[:-len(suf)]
            return stem + rep if _m(stem) > 0 else word
    return word


def _step4(word):
    for suf, _ in _STEP4.get(word[-1], ()):
        if word.endswith(suf):
            stem = word[:-len(suf)]
            if suf == "ion" and stem[-1:] not in ("s", "t"):
                continue
            return stem if _m(stem) > 1 else word
    return word


def _step5(word):
    if word.endswith("e"):
        m = _m(word)
        if m > 1 or (m == 1 and not _cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _m(word) > 1:
        word = word[:-1]
    return word


def stem(token):
    """Stem an alphabetic token of 3 or more letters; others pass through."""
    if len(token) <= 2 or not token.isalpha():
        return token
    word = _step1c(_step1ab(token))
    word = _map_suffix(_map_suffix(word, _STEP2), _STEP3)
    return _step5(_step4(word))
