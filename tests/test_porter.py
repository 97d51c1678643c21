import hashlib
import itertools
import string

import pytest
from hypothesis import given, strategies as st

from seqveritas.porter import stem

# Reference vectors for the 1980 algorithm.
VECTORS = [
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("happy", "happi"),
    ("sky", "sky"),
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    ("running", "run"),
    ("run", "run"),
    # step 5: "-e" then "-ll" on the same word (vowel + "lle")
    ("michelle", "michel"),
    ("belle", "bell"),
    ("seville", "sevil"),
    ("gazelle", "gazel"),
    ("danielle", "daniel"),
    ("alle", "all"),
    ("elle", "ell"),
    ("ille", "ill"),
    ("olle", "oll"),
    ("ulle", "ull"),
]


@pytest.mark.parametrize("word,expected", VECTORS)
def test_reference_vectors(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    assert stem("a") == "a"
    assert stem("is") == "is"


def test_digits_pass_through():
    assert stem("2024") == "2024"
    assert stem("covid19") == "covid19"


def test_empty_token():
    assert stem("") == ""


def test_idempotent_on_vectors():
    for _, out in VECTORS:
        assert stem(stem(out)) == stem(out)


@given(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=20))
def test_stem_never_raises(word):
    out = stem(word)
    assert isinstance(out, str) and out


# Suffixes of every step of the algorithm, each tried after every root and
# followed by every inflection, so each rule fires at several measures m.
ROOTS = [
    "run", "hop", "tan", "fall", "hiss", "fizz", "fail", "fil", "sky",
    "happy", "relat", "condit", "ration", "digit", "oper", "feud", "decis",
    "hope", "callous", "form", "sens", "electr", "reviv", "allow", "infer",
    "airlin", "adjust", "defens", "irrit", "replac", "depend", "adopt",
    "commun", "activ", "effect", "prob", "ceas", "control", "michel", "gaz",
    "troubl", "agre", "plaster", "sing", "motor", "a", "be", "try",
]
STEP1 = ["sses", "ies", "ss", "s", "eed", "ed", "ing", "at", "bl", "iz",
         "y"]
STEP2 = ["ational", "tional", "enci", "anci", "izer", "bli", "alli",
         "entli", "eli", "ousli", "ization", "ation", "ator", "alism",
         "iveness", "fulness", "ousness", "aliti", "iviti", "biliti", "logi"]
STEP3 = ["icate", "ative", "alize", "iciti", "ical", "ful", "ness"]
STEP4 = ["al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
         "ment", "ent", "ion", "sion", "tion", "ou", "ism", "ate", "iti",
         "ous", "ive", "ize"]
STEP5 = ["e", "le", "ll", "lle"]
INFLECTIONS = ["", "s", "ed", "ing", "ly", "ness"]

# sha256 over the "word stem\n" lines of the words below; a change to any
# of their stems changes it.
STEM_DIGEST = (
    "ffcc64bb50225de0071f18d7891e3f4a"
    "9c8f1b989ab0201cb8e05b7efa52b865")


def _digest_words():
    suffixes = [""] + STEP1 + STEP2 + STEP3 + STEP4 + STEP5
    return list(dict.fromkeys(root + suf + infl for root in ROOTS
                              for suf in suffixes for infl in INFLECTIONS))


def test_stem_digest():
    words = _digest_words()
    assert len(words) == 18_223
    lines = "".join(f"{w} {stem(w)}\n" for w in words)
    assert hashlib.sha256(lines.encode()).hexdigest() == STEM_DIGEST


# The same digest over every lowercase word of 1 to 3 letters, where a
# suffix can be the whole word ("ion", "ies", "eed", "sss").
SHORT_WORDS_DIGEST = (
    "fe0701b97c9b2cd6445a207d8ee0ecbcb04ab1f1"
    "78ec46da16a3efc74ed58acd")


def test_short_words_digest():
    words = ["".join(letters) for n in (1, 2, 3)
             for letters in itertools.product(string.ascii_lowercase,
                                              repeat=n)]
    assert len(words) == 18_278
    assert sum(stem(w) != w for w in words) == 1_015
    lines = "".join(f"{w} {stem(w)}\n" for w in words)
    assert hashlib.sha256(lines.encode()).hexdigest() == SHORT_WORDS_DIGEST
