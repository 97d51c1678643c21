"""Deterministic synthetic inputs, seeded only by the workload seed.

The Kaggle Fake.csv/True.csv corpus is not shipped, so every input the
benchmark feeds the program is generated here. All randomness comes from
numpy's PCG64 and never from `seqveritas.numerics.Prng`: the program's own
generator is expected to change, and the inputs must not change with it.

Article lengths are taken at fixed quantiles of one length distribution and
then shuffled, so every seed yields the same multiset of lengths and the
same amount of work; only the words differ.
"""

from __future__ import annotations

import csv
import io
import statistics

import numpy as np

# Recorded in every run record; the workload `why` lines in BENCHMARK.json
# summarise them. A workload may rescale the article length median (see
# `workloads.SCALES`).
PARAMS = {
    "rng": "numpy.random.Generator(PCG64(seed))",
    "lexicon_size": 30000,
    "zipf": {"exponent": 1.05, "offset": 2.7},
    "suffixes": ["ing", "ed", "ation", "ness", "ly", "ment", "ful", "ive",
                 "ize", "al", "er", "s", "ity", "ous", "ence", "able",
                 "ism", "ist", "ational", "fulness"],
    "suffix_share": 0.55,
    "function_word_share": 0.5,
    "topic_words_per_class": 300,
    "topic_share": 0.12,
    "article_words": {"distribution": "lognormal", "median": 330,
                      "sigma": 0.65, "min": 30, "max": 3000},
    "title_words": [6, 14],
    "sentence_words": [6, 24],
    "encoded_tokens_per_word": 0.6,
    "oov_share": 0.03,
}

# Common English function words; almost all are in the program's stop-list,
# so stop-word removal has real work to do.
FUNCTION_WORDS = (
    "the of and to a in that is was he for it with as his on be at by i "
    "this had not are but from or have an they which one you were her all "
    "she there would their we him been has when who will more no if out so "
    "said what up its about into than them can only other new some could "
    "time these two may then do first any my now such like our over man me "
    "even most made after also did many before must through back years where "
    "much your way well down should because each just those people mr how "
    "too little state good very make world still own see men work long get "
    "here between both life being under never day same another know while "
    "last might us great old year off come since against go came right used "
    "take three").split()

_ONSETS = ("b br bl c cr cl d dr f fr fl g gr gl h j k kr l m n p pr pl qu "
           "r s st str sl sm sn sp t tr th v w wr z").split()
_VOWELS = "a e i o u ai ea ou oa io".split()
_CODAS = ("n r l m t k ck nd nt rk rm mp lt st ft ng rd").split()

SUBJECTS = {1: ("News", "politics", "left-news", "Government News"),
            0: ("politicsNews", "worldnews")}


class Synth:
    """One generator per run; call its methods in a fixed order."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self._lexicon = None
        self._topics = {}

    # --- words -----------------------------------------------------------

    def lexicon(self):
        """Distinct lowercase words in Zipf rank order: stems of one to
        three syllables ending in a consonant, about half of them with an
        English suffix attached. Shorter words rank as more frequent."""
        if self._lexicon is None:
            rng, size = self.rng, PARAMS["lexicon_size"]
            suffixes = [""] + PARAMS["suffixes"]
            suffix_p = np.full(len(suffixes),
                               PARAMS["suffix_share"] / (len(suffixes) - 1))
            suffix_p[0] = 1.0 - PARAMS["suffix_share"]
            words, seen = [], set()
            while len(words) < size:
                n = 2 * size
                syllables = rng.choice(3, size=n, p=[0.45, 0.45, 0.10]) + 1
                onsets = rng.integers(0, len(_ONSETS), (n, 3))
                vowels = rng.integers(0, len(_VOWELS), (n, 3))
                codas = rng.integers(0, len(_CODAS), n)
                sufs = rng.choice(len(suffixes), size=n, p=suffix_p)
                for i in range(n):
                    word = "".join(_ONSETS[onsets[i, j]] + _VOWELS[vowels[i, j]]
                                   for j in range(syllables[i]))
                    word += _CODAS[codas[i]] + suffixes[sufs[i]]
                    if word not in seen and len(words) < size:
                        seen.add(word)
                        words.append(word)
            # rank follows length, ties keep generation order
            self._lexicon = sorted(words, key=len)
        return self._lexicon

    def _zipf_draw(self, n, size):
        z = PARAMS["zipf"]
        weights = 1.0 / (np.arange(n) + z["offset"]) ** z["exponent"]
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        return np.minimum(np.searchsorted(cdf, self.rng.random(size)), n - 1)

    def _class_topics(self, n):
        """Two disjoint topic sets of ranks in [0, n), one per class; each
        at most a quarter of the ranks."""
        if n not in self._topics:
            k = min(PARAMS["topic_words_per_class"], n // 4)
            picked = self.rng.choice(n, size=2 * k, replace=False)
            self._topics[n] = {1: picked[:k], 0: picked[k:]}
        return self._topics[n]

    def _mixture(self, label, n_items, size):
        """Ranks in [0, n_items) from the class-conditional mixture: a
        shared Zipf draw, replaced by a class topic word with probability
        `topic_share`."""
        ranks = self._zipf_draw(n_items, size)
        topic = self.rng.random(size) < PARAMS["topic_share"]
        topics = self._class_topics(n_items)[label]
        ranks[topic] = topics[self.rng.integers(0, len(topics),
                                                int(topic.sum()))]
        return ranks

    # --- lengths ---------------------------------------------------------

    def article_lengths(self, n, median=None):
        """n word counts at the (i + 0.5)/n quantiles of the length
        distribution, in shuffled order. `median` rescales the whole
        distribution, its limits included."""
        a = PARAMS["article_words"]
        scale = 1.0 if median is None else median / a["median"]
        normal = statistics.NormalDist()
        qs = [normal.inv_cdf((i + 0.5) / n) for i in range(n)]
        lengths = np.exp(np.log(a["median"] * scale)
                         + a["sigma"] * np.array(qs))
        lengths = np.clip(np.rint(lengths), max(1, round(a["min"] * scale)),
                          round(a["max"] * scale)).astype(int)
        return lengths[self.rng.permutation(n)]

    # --- raw text --------------------------------------------------------

    def _words(self, label, n):
        lex = self.lexicon()
        ranks = self._mixture(label, len(lex), n)
        func = self.rng.random(n) < PARAMS["function_word_share"]
        fw = self.rng.integers(0, len(FUNCTION_WORDS), n)
        return [FUNCTION_WORDS[fw[i]] if func[i] else lex[ranks[i]]
                for i in range(n)]

    def text(self, label, n_words):
        """Sentences with capitals, commas, full stops and the odd number,
        so that cleaning has punctuation to strip."""
        words = self._words(label, n_words)
        lo, hi = PARAMS["sentence_words"]
        out, i = [], 0
        while i < n_words:
            k = int(self.rng.integers(lo, hi + 1))
            sent = words[i:i + k]
            i += k
            sent[0] = sent[0].capitalize()
            if len(sent) > 4 and self.rng.random() < 0.5:
                sent[len(sent) // 2] += ","
            if self.rng.random() < 0.1:
                sent.append(str(int(self.rng.integers(2, 2018))))
            out.append(" ".join(sent) + ".")
        return " ".join(out)

    def articles(self, label, n, median=None):
        """n (title, text, subject, date) rows for one class."""
        lo, hi = PARAMS["title_words"]
        subjects = SUBJECTS[label]
        rows = []
        for n_words in self.article_lengths(n, median):
            title = " ".join(self._words(label, int(self.rng.integers(lo, hi + 1))))
            day = int(self.rng.integers(1, 29))
            rows.append((title.title(), self.text(label, int(n_words)),
                         subjects[int(self.rng.integers(len(subjects)))],
                         f"March {day}, 2017"))
        return rows

    def texts(self, n, median=None):
        """n raw texts for predict, alternating classes."""
        return [self.text(i % 2, int(w))
                for i, w in enumerate(self.article_lengths(n, median))]

    # --- encoded sequences -----------------------------------------------

    def vocab_tokens(self, vocab_size):
        """The vocab_size - 2 most frequent lexicon words (PAD and OOV
        take indices 0 and 1)."""
        return self.lexicon()[:vocab_size - 2]

    def sequences(self, n, vocab_size, maxlen):
        """Pre-padded (n, maxlen) int64 index sequences with balanced
        labels: class-conditional Zipf indices in [2, vocab_size), OOV
        (index 1) at `oov_share`, and lengths from the article-length
        distribution scaled to tokens kept after preprocessing."""
        lengths = np.rint(self.article_lengths(n)
                          * PARAMS["encoded_tokens_per_word"]).astype(int)
        lengths = np.clip(lengths, 1, maxlen)
        labels = self.rng.permutation(np.arange(n) % 2)
        x = np.zeros((n, maxlen), dtype=np.int64)
        for row, (length, label) in enumerate(zip(lengths, labels)):
            idx = 2 + self._mixture(int(label), vocab_size - 2, length)
            idx[self.rng.random(length) < PARAMS["oov_share"]] = 1
            x[row, maxlen - length:] = idx
        return x, labels.astype(np.int64)


def csv_bytes(rows):
    """The rows as a Fake.csv/True.csv-style UTF-8 CSV document."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("title", "text", "subject", "date"))
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")
