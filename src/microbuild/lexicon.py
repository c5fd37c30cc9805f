"""Tokenization, vocabulary, and a small skip-gram word-embedding trainer.

Word vectors are trained on the bundled corpus (one lowercase sentence per
line) with negative sampling. The corpus is authored so that the command
phrasings and their synonym variants share contexts, which is what lets a
command built from swapped-in synonyms land near the original in vector
space. Index 0 is the unknown token; its embedding row stays zero.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .nn import load_model, save_model

UNK = "<unk>"
WORD_DIM = 32

_PUNCT = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, whitespace-split, punctuation stripped per token."""
    out = []
    for raw in text.lower().split():
        tok = raw.translate(_PUNCT)
        if tok:
            out.append(tok)
    return out


@dataclass
class Vocab:
    index: dict[str, int]  # token -> dense id, UNK at 0
    counts: np.ndarray  # occurrence count per id (UNK aggregates the pruned)

    @classmethod
    def build(cls, sentences: list[str], min_count: int = 2) -> "Vocab":
        freq = Counter(tok for s in sentences for tok in tokenize(s))
        kept = sorted(t for t, c in freq.items() if c >= min_count)
        index = {UNK: 0}
        counts = [0]
        for tok in kept:
            index[tok] = len(index)
            counts.append(freq[tok])
        counts[0] = sum(c for t, c in freq.items() if c < min_count)
        return cls(index=index, counts=np.array(counts, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.index)

    def ids(self, tokens: list[str]) -> np.ndarray:
        idx = self.index
        return np.array([idx.get(t, 0) for t in tokens], dtype=np.int64)

    def tokens_by_id(self) -> list[str]:
        out = [""] * len(self.index)
        for tok, i in self.index.items():
            out[i] = tok
        return out


class WordEmbeddings:
    """|V| x d embedding matrix plus its vocabulary."""

    def __init__(self, vocab: Vocab, vectors: np.ndarray):
        if vectors.shape[0] != len(vocab):
            raise ValueError("vector count does not match vocabulary size")
        self.vocab = vocab
        self.vectors = vectors.astype(np.float32)
        self.dim = vectors.shape[1]

    def embed_tokens(self, tokens: list[str]) -> np.ndarray:
        """Per-token rows, zero vector for out-of-vocabulary tokens."""
        if not tokens:
            return np.zeros((0, self.dim), dtype=np.float32)
        return self.vectors[self.vocab.ids(tokens)]

    def spec(self) -> dict:
        return {"kind": "word-embeddings", "dim": self.dim, "tokens": self.vocab.tokens_by_id()}

    def save(self, path) -> None:
        save_model(path, self.spec(), self.vectors.ravel())

    @classmethod
    def load(cls, path) -> "WordEmbeddings":
        spec, flat = load_model(path)
        if spec.get("kind") != "word-embeddings":
            raise ValueError(f"{path}: not a word-embeddings file")
        return cls.from_spec(spec, flat)

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
        """Rebuild from ``spec()`` and the flat vectors; counts are not stored.
        A malformed spec or a wrong number of values raises ``ValueError``."""
        n, dim = cls.spec_shape(spec)
        if flat.size != n * dim:
            raise ValueError(f"word-embeddings: {flat.size} values for {n} x {dim} vectors")
        index = {tok: i for i, tok in enumerate(spec["tokens"])}
        return cls(Vocab(index=index, counts=np.zeros(n, dtype=np.int64)), flat.reshape(n, dim))


@dataclass
class SkipgramConfig:
    dim: int = WORD_DIM
    window: int = 2
    negatives: int = 5
    epochs: int = 120
    lr: float = 0.05
    min_count: int = 2
    batch: int = 256


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def train_skipgram(
    sentences: list[str], config: SkipgramConfig, seed: int
) -> tuple[WordEmbeddings, list[float]]:
    """Skip-gram with negative sampling; returns embeddings + per-epoch loss.

    Noise distribution is unigram^0.75. Deterministic for a fixed seed.

    Negatives are drawn as ``Generator.choice(n_vocab, size, p=noise)``
    draws them: a uniform per draw, looked up in the noise CDF, which is
    built once here as ``choice`` builds it per call. Each batch's updates
    are scattered with ``np.add.at`` on the flattened matrices, one flat
    index per element of an updated row; every element then takes its
    updates one at a time in the same order as a row-wise ``np.add.at``,
    so the sums are the same bit for bit. (The 1-D form runs on numpy's
    fast path for ``add.at``; a row-wise one does not.)
    """
    rng = np.random.default_rng(seed)
    vocab = Vocab.build(sentences, min_count=config.min_count)
    n_vocab = len(vocab)

    centers, contexts = [], []
    for sent in sentences:
        ids = vocab.ids(tokenize(sent))
        for i, cid in enumerate(ids):
            if cid == 0:
                continue
            lo, hi = max(0, i - config.window), min(len(ids), i + config.window + 1)
            for j in range(lo, hi):
                if j != i and ids[j] != 0:
                    centers.append(cid)
                    contexts.append(ids[j])
    centers = np.array(centers, dtype=np.int64)
    contexts = np.array(contexts, dtype=np.int64)
    if centers.size == 0:
        raise ValueError("corpus produced no training pairs")

    noise = vocab.counts.astype(np.float64) ** 0.75
    noise[0] = 0.0
    noise /= noise.sum()
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    w_in = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(n_vocab, config.dim))
    w_out = np.zeros((n_vocab, config.dim))
    w_in[0] = 0.0

    columns = np.arange(config.dim)

    def scatter_add(w: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
        """``np.add.at(w, rows, values)`` for a 2-D ``w``, through the 1-D fast path."""
        np.add.at(w.reshape(-1), (rows[:, None] * config.dim + columns).reshape(-1), values.reshape(-1))

    losses: list[float] = []
    n_pairs = centers.size
    for epoch in range(config.epochs):
        lr = config.lr * max(1.0 - epoch / config.epochs, 1e-4)
        order = rng.permutation(n_pairs)
        total = 0.0
        for start in range(0, n_pairs, config.batch):
            sel = order[start : start + config.batch]
            c, p = centers[sel], contexts[sel]
            n = cdf.searchsorted(rng.random((sel.size, config.negatives)), side="right")
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
    return WordEmbeddings(vocab, w_in.astype(np.float32)), losses


def load_bundled_corpus() -> list[str]:
    text = resources.files("microbuild.data").joinpath("corpus.txt").read_text(encoding="utf-8")
    return [line for line in text.splitlines() if line.strip()]
