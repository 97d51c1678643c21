"""Porter stemming algorithm (1980), steps 1a through 5b.

Operates on lowercase alphabetic tokens; callers are expected to pass
tokens through unchanged when they contain digits. Words of length <= 2
are returned as-is, per the original algorithm.

The suffix tables of steps 2, 3 and 4 are grouped by the suffix's final
letter at import time, and each word tries only the group of its own final
letter. Step 5 measures m on the word without its final "e" once that "e"
is dropped. That is the measure the original takes (a trailing vowel adds
no VC pair), and it keeps words ending in vowel + "lle" ("michelle",
"belle") from indexing past the end of the word.
"""

from __future__ import annotations

_VOWELS = "aeiou"


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


class _Stemmer:
    def __init__(self, word):
        self.b = word
        self.k = len(word) - 1  # index of last char of current word
        self.j = 0              # general offset set by ends()

    def cons(self, i):
        ch = self.b[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            return True if i == 0 else not self.cons(i - 1)
        return True

    def m(self):
        """Number of VC sequences in b[0..j]."""
        n = 0
        i = 0
        while True:
            if i > self.j:
                return n
            if not self.cons(i):
                break
            i += 1
        i += 1
        while True:
            while True:
                if i > self.j:
                    return n
                if self.cons(i):
                    break
                i += 1
            i += 1
            n += 1
            while True:
                if i > self.j:
                    return n
                if not self.cons(i):
                    break
                i += 1
            i += 1

    def vowelinstem(self):
        return any(not self.cons(i) for i in range(self.j + 1))

    def doublec(self, j):
        if j < 1:
            return False
        if self.b[j] != self.b[j - 1]:
            return False
        return self.cons(j)

    def cvc(self, i):
        """consonant-vowel-consonant ending, final cons not w, x or y."""
        if i < 2 or not self.cons(i) or self.cons(i - 1) or not self.cons(i - 2):
            return False
        return self.b[i] not in "wxy"

    def ends(self, s):
        length = len(s)
        if length > self.k + 1 or self.b[self.k - length + 1:self.k + 1] != s:
            return False
        self.j = self.k - length
        return True

    def setto(self, s):
        self.b = self.b[:self.j + 1] + s
        self.k = len(self.b) - 1

    def r(self, s):
        if self.m() > 0:
            self.setto(s)

    def step1ab(self):
        if self.b[self.k] == "s":
            if self.ends("sses"):
                self.k -= 2
            elif self.ends("ies"):
                self.setto("i")
            elif self.b[self.k - 1] != "s":
                self.k -= 1
        self.b = self.b[:self.k + 1]
        if self.ends("eed"):
            if self.m() > 0:
                self.k -= 1
                self.b = self.b[:self.k + 1]
        elif (self.ends("ed") or self.ends("ing")) and self.vowelinstem():
            self.k = self.j
            self.b = self.b[:self.k + 1]
            if self.ends("at"):
                self.setto("ate")
            elif self.ends("bl"):
                self.setto("ble")
            elif self.ends("iz"):
                self.setto("ize")
            elif self.doublec(self.k):
                if self.b[self.k] not in "lsz":
                    self.k -= 1
                    self.b = self.b[:self.k + 1]
            elif self.m() == 1 and self.cvc(self.k):
                self.setto("e")

    def step1c(self):
        if self.ends("y") and self.vowelinstem():
            self.b = self.b[:self.k] + "i"

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
            "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive",
            "ize")
    ])

    def _map_suffix(self, table):
        for suf, rep in table.get(self.b[self.k], ()):
            if self.ends(suf):
                self.r(rep)
                return

    def step4(self):
        for suf, _ in self._STEP4.get(self.b[self.k], ()):
            if self.ends(suf):
                if suf == "ion" and self.b[self.j] not in "st":
                    continue
                if self.m() > 1:
                    self.k = self.j
                    self.b = self.b[:self.k + 1]
                return

    def step5(self):
        self.j = self.k
        if self.b[self.k] == "e":
            a = self.m()
            if a > 1 or (a == 1 and not self.cvc(self.k - 1)):
                self.k -= 1
                self.b = self.b[:self.k + 1]
                self.j = self.k
        if self.b[self.k] == "l" and self.doublec(self.k) and self.m() > 1:
            self.k -= 1
            self.b = self.b[:self.k + 1]

    def run(self):
        if self.k <= 1:
            return self.b
        self.step1ab()
        self.step1c()
        self._map_suffix(self._STEP2)
        self._map_suffix(self._STEP3)
        self.step4()
        self.step5()
        return self.b


def stem(token):
    """Stem a lowercase alphabetic token; anything else passes through."""
    if not token or not token.isalpha():
        return token
    return _Stemmer(token).run()
