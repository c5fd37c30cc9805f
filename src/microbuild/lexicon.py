"""Tokenization and a small skip-gram word-embedding trainer.

Word vectors are trained on the bundled corpus (one lowercase sentence per
line) with negative sampling. The corpus is authored so that the command
phrasings and their synonym variants share contexts, which is what lets a
command built from swapped-in synonyms land near the original in vector
space. The vocabulary is the unknown token at id 0, then every token seen
at least ``MIN_COUNT`` times, sorted; the unknown token's row stays zero.
The token counts only set the trainer's noise distribution and are not kept.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import check_int

UNK = "<unk>"
WORD_DIM = 32
WINDOW = 2  # context words taken on each side of a center word
NEGATIVES = 5  # noise words drawn per (center, context) pair
LR = 0.05  # the first epoch's learning rate; it decays linearly over the epochs
MIN_COUNT = 2  # rarer tokens map to UNK

_PUNCT = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, whitespace-split, punctuation stripped per token."""
    out = []
    for raw in text.lower().split():
        tok = raw.translate(_PUNCT)
        if tok:
            out.append(tok)
    return out


def count_tokens(sentences: list[str]) -> tuple[list[str], np.ndarray]:
    """The vocabulary in id order, and each id's occurrence count in ``sentences``.

    UNK comes first with count 0, so it is never drawn as noise; the
    tokens seen at least ``MIN_COUNT`` times follow in sorted order.
    """
    freq = Counter(tok for s in sentences for tok in tokenize(s))
    kept = sorted(t for t, c in freq.items() if c >= MIN_COUNT)
    return [UNK, *kept], np.array([0] + [freq[t] for t in kept], dtype=np.int64)


class WordEmbeddings:
    """|V| x d embedding matrix: row ``i`` is the vector of ``tokens[i]``, and
    row 0, UNK's, serves every token not in ``tokens``. ``tokens`` is the
    list ``spec()`` stores; a list with a repeated token raises ``ValueError``."""

    def __init__(self, tokens: list[str], vectors: np.ndarray):
        if vectors.shape[0] != len(tokens):
            raise ValueError("vector count does not match vocabulary size")
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}
        if len(self.index) != len(tokens):
            raise ValueError("word-embeddings: duplicate token in the vocabulary")
        self.vectors = vectors.astype(np.float32)
        self.dim = vectors.shape[1]

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        """Per-token rows, zero vector for out-of-vocabulary tokens."""
        return self.vectors[[self.index.get(t, 0) for t in tokens]]

    def spec(self) -> dict:
        return {"kind": "word-embeddings", "dim": self.dim, "tokens": self.tokens}

    @staticmethod
    def spec_shape(spec) -> tuple[int, int]:
        """(|V|, d) of a ``spec()`` read from a file; a malformed one raises ``ValueError``."""
        if not isinstance(spec, dict):
            raise ValueError("word-embeddings spec is not a JSON object")
        tokens, dim = spec.get("tokens"), spec.get("dim")
        if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
            raise ValueError("word-embeddings spec: tokens is not a list of strings")
        if type(dim) is not int or dim < 1:
            raise ValueError(f"word-embeddings spec: dim {dim!r} is not a positive integer")
        return len(tokens), dim

    @classmethod
    def from_spec(cls, spec, flat: np.ndarray) -> "WordEmbeddings":
        """Rebuild from ``spec()`` and the flat vectors. A malformed spec or a
        wrong number of values raises ``ValueError``."""
        n, dim = cls.spec_shape(spec)
        if flat.size != n * dim:
            raise ValueError(f"word-embeddings: {flat.size} values for {n} x {dim} vectors")
        return cls(spec["tokens"], flat.reshape(n, dim))


@dataclass
class SkipgramConfig:
    """Passes over the corpus, and (center, context) pairs per update. The
    vector size, window, noise count, learning rate and count cut-off are
    the module constants ``WORD_DIM``, ``WINDOW``, ``NEGATIVES``, ``LR``
    and ``MIN_COUNT``."""

    epochs: int = 120
    batch: int = 256


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def train_skipgram(
    sentences: list[str], config: SkipgramConfig, seed: int
) -> tuple[WordEmbeddings, list[float]]:
    """Skip-gram with negative sampling; returns embeddings + per-epoch loss.

    Noise distribution is unigram^0.75. Deterministic for a fixed seed. A
    config whose ``epochs`` or ``batch`` is not an integer of at least 1, or
    a ``seed`` that is not an integer of at least 0, raises ``ValueError``
    first.

    Negatives are drawn as ``Generator.choice(n_vocab, size, p=noise)``
    draws them: a uniform per draw, looked up in the noise CDF, which is
    built once here as ``choice`` builds it per call. Each batch's updates
    are scattered with ``np.add.at`` on the flattened matrices, one flat
    index per element of an updated row; every element then takes its
    updates one at a time in the same order as a row-wise ``np.add.at``,
    so the sums are the same bit for bit. (The 1-D form runs on numpy's
    fast path for ``add.at``; a row-wise one does not.)
    """
    check_int("epochs", config.epochs, 1)
    check_int("batch", config.batch, 1)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    tokens, counts = count_tokens(sentences)
    n_vocab = len(tokens)
    index = {tok: i for i, tok in enumerate(tokens)}

    centers, contexts = [], []
    for sent in sentences:
        ids = [index.get(tok, 0) for tok in tokenize(sent)]
        for i, cid in enumerate(ids):
            if cid == 0:
                continue
            lo, hi = max(0, i - WINDOW), min(len(ids), i + WINDOW + 1)
            for j in range(lo, hi):
                if j != i and ids[j] != 0:
                    centers.append(cid)
                    contexts.append(ids[j])
    centers = np.array(centers, dtype=np.int64)
    contexts = np.array(contexts, dtype=np.int64)
    if centers.size == 0:
        raise ValueError("corpus produced no training pairs")

    noise = counts.astype(np.float64) ** 0.75
    noise /= noise.sum()
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    w_in = rng.uniform(-0.5 / WORD_DIM, 0.5 / WORD_DIM, size=(n_vocab, WORD_DIM))
    w_out = np.zeros((n_vocab, WORD_DIM))
    w_in[0] = 0.0

    columns = np.arange(WORD_DIM)

    def scatter_add(w: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """``np.add.at(w, rows, values)`` for a 2-D ``w``, through the 1-D fast path."""
        np.add.at(w.reshape(-1), (rows[:, None] * WORD_DIM + columns).reshape(-1), values.reshape(-1))

    losses: list[float] = []
    n_pairs = centers.size
    for epoch in range(config.epochs):
        lr = LR * max(1.0 - epoch / config.epochs, 1e-4)
        order = rng.permutation(n_pairs)
        total = 0.0
        for start in range(0, n_pairs, config.batch):
            sel = order[start : start + config.batch]
            c, p = centers[sel], contexts[sel]
            n = cdf.searchsorted(rng.random((sel.size, NEGATIVES)), side="right")
            v = w_in[c]  # (B, d)
            up = w_out[p]  # (B, d)
            un = w_out[n]  # (B, K, d)
            sp = _sigmoid(np.einsum("bd,bd->b", v, up))
            sn = _sigmoid(np.einsum("bd,bkd->bk", v, un))
            total += float(-(np.log(np.maximum(sp, 1e-12)).sum() + np.log(np.maximum(1 - sn, 1e-12)).sum()))
            gp = sp - 1.0  # (B,)
            dv = gp[:, None] * up + np.einsum("bk,bkd->bd", sn, un)
            scatter_add(w_in, c, -lr * dv)
            scatter_add(w_out, p, -lr * gp[:, None] * v)
            scatter_add(w_out, n.reshape(-1), -lr * (sn[:, :, None] * v[:, None, :]))
            w_in[0] = 0.0
            w_out[0] = 0.0
        losses.append(total / n_pairs)
    return WordEmbeddings(tokens, w_in.astype(np.float32)), losses


def load_bundled_corpus() -> list[str]:
    text = resources.files("microbuild.data").joinpath("corpus.txt").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip()]
