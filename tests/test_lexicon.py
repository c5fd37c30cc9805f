from __future__ import annotations

import json
from collections import Counter
from importlib import resources

import numpy as np
import pytest

from microbuild import lexicon as L


@pytest.fixture(scope="module")
def corpus():
    return L.load_bundled_corpus()


@pytest.fixture(scope="module")
def trained(corpus):
    emb, losses = L.train_skipgram(corpus, L.SkipgramConfig(), seed=1)
    return emb, losses


def command_texts():
    pkg = resources.files("microbuild.data")
    orig = [c["text"] for c in json.loads(pkg.joinpath("original_commands.json").read_text())]
    alt = [c["text"] for c in json.loads(pkg.joinpath("alternate_commands.json").read_text())]
    return orig, alt


def cosine(emb: L.WordEmbeddings, a: str, b: str) -> float:
    va, vb = emb.embed_tokens([a])[0], emb.embed_tokens([b])[0]
    denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
    return float(va @ vb / denom) if denom > 0 else 0.0


def nearest_words(emb: L.WordEmbeddings, token: str, k: int) -> list[str]:
    """The ``k`` in-vocabulary words of highest cosine similarity to ``token``."""
    tid = emb.index.get(token, 0)
    v = emb.vectors[tid]
    norms = np.linalg.norm(emb.vectors, axis=1)
    denom = norms * max(float(np.linalg.norm(v)), 1e-12)
    sims = (emb.vectors @ v) / np.maximum(denom, 1e-12)
    sims[tid] = -np.inf
    sims[0] = -np.inf
    order = np.argsort(-sims)[:k]
    return [emb.tokens[i] for i in order]


def corpus_check(sentences: list[str], required_tokens: list[str]) -> list[str]:
    """Return a list of problems; empty means the corpus has at least 500
    sentences and each required token at least 20 times."""
    problems = []
    if len(sentences) < 500:
        problems.append(f"only {len(sentences)} sentences (need >= 500)")
    freq = Counter(tok for s in sentences for tok in L.tokenize(s))
    for tok in sorted(set(required_tokens)):
        if freq[tok] < 20:
            problems.append(f"token '{tok}' occurs {freq[tok]} times (need >= 20)")
    return problems


def substituted_word_pairs(original_texts: list[str], alternate_texts: list[str]) -> list[tuple[str, str]]:
    """Word swaps between paired phrasings, as (original, alternate) tuples.

    Computed as the multiset difference of each text pair; phrasings that
    only reorder shared words contribute nothing.
    """
    pairs = []
    for orig, alt in zip(original_texts, alternate_texts):
        a, b = Counter(L.tokenize(orig)), Counter(L.tokenize(alt))
        removed = sorted((a - b).elements())
        added = sorted((b - a).elements())
        pairs.extend(zip(removed, added))
    return sorted(set(pairs))


# --------------------------------------------------------------- tokenize


def test_tokenize_basic():
    assert L.tokenize("Build a supply depot") == ["build", "a", "supply", "depot"]


def test_tokenize_strips_punctuation():
    assert L.tokenize("click on the barracks.") == ["click", "on", "the", "barracks"]


def test_tokenize_empty():
    assert L.tokenize("") == []
    assert L.tokenize("  ...  !!") == []


# ------------------------------------------------------------------ vocab


def test_count_tokens_unk_first_then_sorted_kept_tokens():
    assert L.MIN_COUNT == 2
    tokens, counts = L.count_tokens(["b b a a a c", "B."])
    assert tokens == [L.UNK, "a", "b"]  # "c" is pruned below MIN_COUNT
    assert counts.tolist() == [0, 3, 3]
    emb = L.WordEmbeddings(tokens, np.ones((3, 4), dtype=np.float32))
    assert emb.index == {L.UNK: 0, "a": 1, "b": 2}
    np.testing.assert_array_equal(emb.embed_tokens(["c"]), np.ones((1, 4)))  # a pruned token takes UNK's row


def test_embeddings_reject_a_repeated_token():
    with pytest.raises(ValueError, match="duplicate token"):
        L.WordEmbeddings([L.UNK, "a", "a"], np.zeros((3, 4), dtype=np.float32))


# ----------------------------------------------------------- embed_tokens


def test_embed_tokens_empty():
    emb = L.WordEmbeddings([L.UNK, "a", "b"], np.zeros((3, 8), dtype=np.float32))
    assert emb.embed_tokens([]).shape == (0, 8)


def test_embed_tokens_oov_is_zero_and_length_preserved(trained):
    emb, _ = trained
    out = emb.embed_tokens(["barracks", "xyzzy", "depot"])
    assert out.shape == (3, emb.dim)
    np.testing.assert_array_equal(out[1], np.zeros(emb.dim, dtype=np.float32))
    assert np.abs(out[0]).sum() > 0


# ----------------------------------------------------------------- corpus


def test_corpus_invariants(corpus):
    orig, alt = command_texts()
    required = [t for text in orig + alt for t in L.tokenize(text)]
    assert corpus_check(corpus, required) == []


def test_corpus_is_lowercase(corpus):
    assert all(s == s.lower() for s in corpus)


# --------------------------------------------------------------- training


def test_skipgram_deterministic(corpus):
    cfg = L.SkipgramConfig(epochs=3)
    a, _ = L.train_skipgram(corpus, cfg, seed=7)
    b, _ = L.train_skipgram(corpus, cfg, seed=7)
    assert a.vectors.tobytes() == b.vectors.tobytes()


def reference_train_skipgram(sentences, config, seed):
    """The trainer with row-wise ``np.add.at`` scatters and ``rng.choice(p=noise)`` negatives."""
    rng = np.random.default_rng(seed)
    tokens, counts = L.count_tokens(sentences)
    n_vocab = len(tokens)
    index = {tok: i for i, tok in enumerate(tokens)}
    centers, contexts = [], []
    for sent in sentences:
        ids = [index.get(tok, 0) for tok in L.tokenize(sent)]
        for i, cid in enumerate(ids):
            if cid == 0:
                continue
            lo, hi = max(0, i - L.WINDOW), min(len(ids), i + L.WINDOW + 1)
            for j in range(lo, hi):
                if j != i and ids[j] != 0:
                    centers.append(cid)
                    contexts.append(ids[j])
    centers = np.array(centers, dtype=np.int64)
    contexts = np.array(contexts, dtype=np.int64)
    noise = counts.astype(np.float64) ** 0.75
    noise[0] = 0.0
    noise /= noise.sum()
    w_in = rng.uniform(-0.5 / L.WORD_DIM, 0.5 / L.WORD_DIM, size=(n_vocab, L.WORD_DIM))
    w_out = np.zeros((n_vocab, L.WORD_DIM))
    w_in[0] = 0.0
    losses = []
    n_pairs = centers.size
    for epoch in range(config.epochs):
        lr = L.LR * max(1.0 - epoch / config.epochs, 1e-4)
        order = rng.permutation(n_pairs)
        total = 0.0
        for start in range(0, n_pairs, config.batch):
            sel = order[start : start + config.batch]
            c, p = centers[sel], contexts[sel]
            n = rng.choice(n_vocab, size=(sel.size, L.NEGATIVES), p=noise)
            v, up, un = w_in[c], w_out[p], w_out[n]
            sp = L._sigmoid(np.einsum("bd,bd->b", v, up))
            sn = L._sigmoid(np.einsum("bd,bkd->bk", v, un))
            total += float(-(np.log(np.maximum(sp, 1e-12)).sum() + np.log(np.maximum(1 - sn, 1e-12)).sum()))
            gp = sp - 1.0
            dv = gp[:, None] * up + np.einsum("bk,bkd->bd", sn, un)
            np.add.at(w_in, c, -lr * dv)
            np.add.at(w_out, p, -lr * gp[:, None] * v)
            np.add.at(w_out, n.reshape(-1), -lr * (sn[:, :, None] * v[:, None, :]).reshape(-1, L.WORD_DIM))
            w_in[0] = 0.0
            w_out[0] = 0.0
        losses.append(total / n_pairs)
    return w_in.astype(np.float32), losses, n_pairs


@pytest.mark.parametrize("seed", [0, 12345, 2**31 + 7])
def test_skipgram_bitwise_equals_row_scatter_reference(corpus, seed):
    # Large batches repeat rows often, so a scatter that sums a row's
    # updates before adding them shows in the float64 losses; the float32
    # vectors can round the difference away.
    cfg = L.SkipgramConfig(epochs=3, batch=1000)
    vectors, losses, n_pairs = reference_train_skipgram(corpus, cfg, seed)
    assert n_pairs % cfg.batch != 0  # a short last batch is covered
    emb, got = L.train_skipgram(corpus, cfg, seed)
    assert emb.vectors.tobytes() == vectors.tobytes()
    assert got == losses


class UnreadCorpus(list):
    def __iter__(self):
        raise AssertionError("the corpus was read")


@pytest.mark.parametrize(
    "field,value",
    [("epochs", 0), ("epochs", -3), ("batch", 0), ("batch", -256), ("epochs", 1.5), ("batch", 2.5),
     ("seed", 1.5), ("seed", -1), ("seed", True)],
)
def test_skipgram_rejects_a_config_below_one_before_reading_the_corpus(field, value):
    settings = {"seed": 3, field: value}
    seed = settings.pop("seed")
    with pytest.raises(ValueError, match=field):
        L.train_skipgram(UnreadCorpus(["build a depot"]), L.SkipgramConfig(**settings), seed=seed)


def test_skipgram_loss_decreases_smoothed(trained):
    _, losses = trained
    smoothed = np.convolve(losses, np.ones(11) / 11, mode="valid")
    assert (np.diff(smoothed) <= 0.0).all()
    assert smoothed[-1] < smoothed[0]


def test_unk_row_stays_zero(trained):
    emb, _ = trained
    np.testing.assert_array_equal(emb.vectors[0], np.zeros(emb.dim, dtype=np.float32))


def test_synonyms_beat_distractors(trained):
    emb, _ = trained
    assert cosine(emb, "build", "construct") > cosine(emb, "build", "click")


def test_nearest_words_select_contains_choose(trained):
    emb, _ = trained
    assert "choose" in nearest_words(emb, "select", k=3)


def test_all_substituted_pairs_are_top5_neighbors(trained):
    emb, _ = trained
    orig, alt = command_texts()
    pairs = substituted_word_pairs(orig, alt)
    assert pairs  # sanity: the command sets do differ
    for a, b in pairs:
        assert b in nearest_words(emb, a, k=5), (a, b)
        assert a in nearest_words(emb, b, k=5), (b, a)


def test_substituted_word_pairs_alignment():
    pairs = substituted_word_pairs(
        ["select a worker", "click on the barracks"],
        ["choose a worker", "left click the barracks"],
    )
    assert pairs == [("on", "left"), ("select", "choose")]


# ------------------------------------------------------------ word spec
# spec() and from_spec are how a MEM file stores and rebuilds its word
# vectors (MemModel.save / MemModel.load); the spec passes through JSON there.


def test_embeddings_save_load_round_trip(trained):
    emb, _ = trained
    spec = json.loads(json.dumps(emb.spec()))
    loaded = L.WordEmbeddings.from_spec(spec, emb.vectors.ravel().copy())
    np.testing.assert_array_equal(loaded.vectors, emb.vectors)
    assert loaded.tokens == emb.tokens and loaded.index == emb.index


@pytest.mark.parametrize(
    "spec,n_values",
    [
        ({"dim": 2}, 4),
        ({"dim": "2", "tokens": ["a", "b"]}, 4),
        ({"dim": 0, "tokens": ["a", "b"]}, 0),
        ({"dim": 2, "tokens": ["a", 7]}, 4),
        ({"dim": 2, "tokens": "ab"}, 4),
    ],
    ids=["no-tokens", "dim-string", "dim-zero", "token-not-string", "tokens-not-list"],
)
def test_embeddings_load_rejects_malformed_spec(spec, n_values):
    with pytest.raises(ValueError, match="word-embeddings spec"):
        L.WordEmbeddings.from_spec({"kind": "word-embeddings", **spec}, np.ones(n_values, dtype=np.float32))


@pytest.mark.parametrize("n_values", [3, 5])
def test_embeddings_load_rejects_wrong_vector_count(n_values):
    spec = {"kind": "word-embeddings", "dim": 2, "tokens": ["a", "b"]}
    with pytest.raises(ValueError, match="values for 2 x 2"):
        L.WordEmbeddings.from_spec(spec, np.ones(n_values, np.float32))
