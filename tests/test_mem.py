from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microbuild import agents as A
from microbuild import env as E
from microbuild import lexicon as L
from microbuild import mem as M
from microbuild.nn import AdamState, adam_step, save_model

from gradcheck import bound, grad_check_fn


@pytest.fixture(scope="module")
def word_emb():
    emb, _ = L.train_skipgram(L.load_bundled_corpus(), L.SkipgramConfig(epochs=10), seed=3)
    return emb


@pytest.fixture(scope="module")
def commands():
    return M.load_commands()


@pytest.fixture(scope="module")
def small_dataset():
    return M.generate_dataset(M.Quotas(per_command=60, nulls=300), seed=11)


def make_batch(rng, n=4, dtype=np.float64):
    return M.MemBatch(
        spatial=rng.random((n, 14, 16, 16)).astype(dtype),
        nonspatial=rng.random((n, 10)).astype(dtype),
        command_ids=rng.integers(0, 5, size=n),
        labels=rng.integers(0, 2, size=n),
    )


# ---------------------------------------------------------------- distance


def test_distance_zero_for_identical():
    v = np.arange(8.0)
    assert M.mem_distance(v, v) == 0.0


def test_distance_hand_value():
    a = np.zeros(8)
    b = np.zeros(8)
    a[0], b[1] = 1.0, 1.0
    assert M.mem_distance(a, b) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_distance_bitwise_equals_norm_of_float64_difference(dtype):
    r = np.random.default_rng(4)
    for _ in range(200):
        a, b = ((r.standard_normal(M.EMBED_DIM) * r.uniform(0.01, 100)).astype(dtype) for _ in range(2))
        assert M.mem_distance(a, b) == float(np.linalg.norm(a.astype(np.float64) - b.astype(np.float64)))


def test_distance_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        M.mem_distance(np.zeros(3), np.zeros(4))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
)
def test_distance_metric_axioms(a, b, c):
    a, b, c = np.array(a), np.array(b), np.array(c)
    dab, dba = M.mem_distance(a, b), M.mem_distance(b, a)
    assert dab >= 0.0
    assert dab == dba
    assert M.mem_distance(a, c) <= dab + M.mem_distance(b, c) + 1e-9


# ---------------------------------------------------------------- commands


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"a": 1}',
        "[1, 2]",
        '[{"text": "build"}]',
        '[{"id": 0}]',
        '[{"id": 0.7, "text": "build"}]',
        '[{"id": "0", "text": "build"}]',
        '[{"id": true, "text": "build"}]',
        '[{"id": 0, "text": 5}]',
        '[{"id": 1, "text": "build"}]',
        '[{"id": 0, "text": "..."}]',
        json.dumps([{"id": i, "text": "build"} for i in range(E.N_COMMANDS + 1)]),
    ],
    ids=[
        "not-json", "object", "not-objects", "no-id", "no-text", "float-id", "string-id", "bool-id",
        "number-text", "ids-not-dense", "no-tokens", "id-without-detector-event",
    ],
)
def test_load_commands_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "commands.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        M.load_commands(path)


def test_load_commands_reads_a_valid_file(tmp_path):
    path = tmp_path / "commands.json"
    path.write_text('[{"id": 1, "text": "train a marine"}, {"id": 0, "text": "build"}]', encoding="utf-8")
    assert [(c.id, c.tokens) for c in M.load_commands(path)] == [(0, ["build"]), (1, ["train", "a", "marine"])]


# ---------------------------------------------------------------- encoders


def test_encode_command_deterministic_and_shaped(word_emb, commands):
    model = M.MemModel(word_emb, np.random.default_rng(0))
    a = model.encode_command(commands[1])
    b = model.encode_command(commands[1])
    assert a.shape == (M.EMBED_DIM,)
    np.testing.assert_array_equal(a, b)


def test_encode_command_rejects_empty():
    with pytest.raises(ValueError):
        M.CommandSpec(id=0, text="...")


def test_encode_state_deterministic_and_shaped(word_emb):
    model = M.MemModel(word_emb, np.random.default_rng(0))
    obs = E.encode_observation(None, E.reset(0))
    a, b = model.encode_state(obs), model.encode_state(obs)
    assert a.shape == (M.EMBED_DIM,)
    np.testing.assert_array_equal(a, b)


def test_encode_state_rejects_bad_shape(word_emb):
    model = M.MemModel(word_emb, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.encode_state_batch(np.zeros((1, 3, 16, 16), dtype=np.float32), np.zeros((1, 10), dtype=np.float32))


# -------------------------------------------------------------------- loss


def test_loss_zero_for_matched_identical_embeddings(word_emb, commands):
    # force both encoders to constant zero output: distance 0, label 0
    model = bound(M.MemModel(word_emb, np.random.default_rng(0)))
    for arr in model.param_arrays():
        arr[...] = 0.0
    batch = M.MemBatch(
        spatial=np.random.default_rng(1).random((2, 14, 16, 16)),
        nonspatial=np.random.default_rng(2).random((2, 10)),
        command_ids=np.array([0, 3]),
        labels=np.array([0, 0]),
    )
    loss, _ = M.mem_loss(batch, model, commands, weight_decay=0.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_loss_zero_for_mismatched_at_unit_distance(word_emb, commands):
    model = bound(M.MemModel(word_emb, np.random.default_rng(0)))
    for arr in model.param_arrays():
        arr[...] = 0.0
    # bias the state projection to produce a unit-norm constant vector
    model.state_proj.bias[0] = 1.0
    batch = M.MemBatch(
        spatial=np.random.default_rng(1).random((3, 14, 16, 16)),
        nonspatial=np.random.default_rng(2).random((3, 10)),
        command_ids=np.array([1, 2, 4]),
        labels=np.array([1, 1, 1]),
    )
    loss, _ = M.mem_loss(batch, model, commands, weight_decay=0.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_loss_matches_independent_scalar_recompute(word_emb, commands):
    model = bound(M.MemModel(word_emb, np.random.default_rng(3)))
    rng = np.random.default_rng(4)
    wd = 2.5e-3
    for _ in range(5):
        batch = make_batch(rng, n=6)
        loss, _ = M.mem_loss(batch, model, commands, wd)
        # direct per-sample recomputation in python floats
        expected = 0.0
        for i in range(6):
            xs = model.encode_state_batch(batch.spatial[i : i + 1], batch.nonspatial[i : i + 1])[0]
            xc = model.encode_command(commands[int(batch.command_ids[i])])
            d = float(np.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(xs, xc))))
            expected += (d - float(batch.labels[i])) ** 2
        expected /= 6
        expected += wd * sum(float(x) ** 2 for p in model.param_arrays() for x in p.reshape(-1))
        assert loss == pytest.approx(expected, rel=1e-6)


def test_loss_gradients_match_finite_differences(word_emb, commands):
    model = bound(M.MemModel(word_emb, np.random.default_rng(0)))
    batch = make_batch(np.random.default_rng(5), n=4)
    one = make_batch(np.random.default_rng(5), n=4)
    one.command_ids[:] = 0
    # a one-command set runs as two copies, and only the first may get a gradient
    for cmds, b in ((commands, batch), (commands[2:3], one)):

        def loss_fn():
            loss, flat = M.mem_loss(b, model, cmds, weight_decay=2.5e-3)
            out, pos = [], 0
            for a in model.param_arrays():
                out.append(flat[pos : pos + a.size].reshape(a.shape).astype(np.float64))
                pos += a.size
            return loss, out

        err = grad_check_fn(
            loss_fn, model.param_arrays(), eps=1e-5, max_entries_per_array=8, rng=np.random.default_rng(6)
        )
        assert err <= 1e-4, len(cmds)


# commands of 6, 1, 4 and 3 tokens; the batch leaves the 4-token one out
UNEQUAL_TEXTS = ["select a worker near the base", "barracks", "click on the barracks", "train a marine"]


@pytest.fixture(scope="module")
def unequal_commands():
    specs = [M.CommandSpec(id=i, text=text) for i, text in enumerate(UNEQUAL_TEXTS)]
    assert [len(c.tokens) for c in specs] == [6, 1, 4, 3]
    return specs


def unequal_batch():
    batch = make_batch(np.random.default_rng(7), n=8)
    batch.command_ids = np.array([3, 0, 1, 3, 1, 0, 3, 1])
    return batch


def reference_mem_loss(batch, model, commands, weight_decay):
    """mem_loss with each distinct command run alone through the LSTM, from
    its first token to its last, and backpropagated alone from its last."""
    model.zero_grads()
    xs = model.encode_state_batch(batch.spatial, batch.nonspatial)
    xc = np.stack([model.encode_command(commands[i]) for i in batch.command_ids])
    diff = (xs - xc).astype(np.float64)
    dist = np.sqrt((diff * diff).sum(axis=1))
    err = dist - batch.labels
    loss = float((err * err).mean()) + weight_decay * sum(float((p * p).sum()) for p in model.param_arrays())
    g_xs = (2.0 * err / (err.size * dist))[:, None] * diff
    model.backward_state_batch(g_xs)
    cell = model.cmd_lstm
    for cid in np.unique(batch.command_ids):
        xs = model.word_embeddings.embed_tokens(commands[cid].tokens)[:, None].astype(np.float64)
        h = cell.forward_seq(xs, *cell.zero_state(1))[-1]
        model.cmd_proj.forward(h)
        gh_seq = np.zeros((xs.shape[0], 1, cell.n_hidden))
        gh_seq[-1] = model.cmd_proj.backward(-g_xs[batch.command_ids == cid].sum(axis=0, keepdims=True))
        cell.backward_seq(gh_seq)
    return loss, model.flat_grads + 2.0 * weight_decay * model.flat_params


def test_loss_unequal_command_lengths_match_per_command_reference(word_emb, unequal_commands):
    model = bound(M.MemModel(word_emb, np.random.default_rng(8)))
    batch = unequal_batch()
    loss, grads = M.mem_loss(batch, model, unequal_commands, weight_decay=2.5e-3)
    grads = grads.copy()  # model.flat_grads, which the reference's backward overwrites
    want_loss, want_grads = reference_mem_loss(batch, model, unequal_commands, weight_decay=2.5e-3)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert grads.dtype == want_grads.dtype == np.float64
    np.testing.assert_allclose(grads, want_grads, rtol=1e-9, atol=1e-9 * np.abs(want_grads).max())
    # the command-encoder gradients are not all zero, so the check has teeth
    n_cmd = sum(a.size for a in model.cmd_lstm.param_arrays() + model.cmd_proj.param_arrays())
    assert np.abs(want_grads[-n_cmd:]).max() > 1e-3


def test_loss_unequal_command_lengths_gradients_match_finite_differences(word_emb, unequal_commands):
    model = bound(M.MemModel(word_emb, np.random.default_rng(9)))
    batch = unequal_batch()
    cmd_params = model.cmd_lstm.param_arrays() + model.cmd_proj.param_arrays()  # the last in the flat layout

    def loss_fn():
        loss, flat = M.mem_loss(batch, model, unequal_commands, weight_decay=2.5e-3)
        out, pos = [], flat.size - sum(a.size for a in cmd_params)
        for a in cmd_params:
            out.append(flat[pos : pos + a.size].reshape(a.shape))
            pos += a.size
        return loss, out

    err = grad_check_fn(loss_fn, cmd_params, eps=1e-5, max_entries_per_array=24, rng=np.random.default_rng(10))
    assert err <= 1e-4


@pytest.mark.parametrize("which", ["original", "alternate", "combined", "unequal"])
def test_command_vectors_do_not_depend_on_their_batch(word_emb, unequal_commands, which):
    # the loss, the scorer and the shaping bonus each encode a whole set in
    # one pass, and encode_command one command; all must give the same bits,
    # in sets of every size
    sets = {
        "original": M.load_commands(),
        "alternate": M.load_commands(alternate=True),
        "combined": M.load_commands() + M.load_commands(alternate=True),
        "unequal": unequal_commands,
    }
    cmds = sets[which]
    for seed in range(5):
        model = M.MemModel(word_emb, np.random.default_rng(seed))
        full = model.encode_command_batch(cmds)
        for u, c in enumerate(cmds):
            assert model.encode_command(c).tobytes() == full[u].tobytes(), (seed, u)
        for size in range(1, len(cmds)):
            for subset in itertools.combinations(range(len(cmds)), size):
                for order in (list(subset), list(reversed(subset))):
                    got = model.encode_command_batch([cmds[u] for u in order])
                    assert got.tobytes() == full[order].tobytes(), (seed, order)


def test_loss_rejects_empty_batch(word_emb, commands):
    model = M.MemModel(word_emb, np.random.default_rng(0))
    batch = M.MemBatch(
        spatial=np.zeros((0, 14, 16, 16), dtype=np.float32),
        nonspatial=np.zeros((0, 10), dtype=np.float32),
        command_ids=np.zeros(0, dtype=np.int64),
        labels=np.zeros(0, dtype=np.int64),
    )
    with pytest.raises(ValueError):
        M.mem_loss(batch, model, commands, 0.0)


# ----------------------------------------------------------------- dataset


def test_dataset_counts_and_ratio(small_dataset):
    ds = small_dataset
    assert ds.n_samples() == 5 * 60 * 2 + 300
    counts = np.bincount(ds.sample_label)
    assert counts[0] == 300 and counts[1] == 600
    # per-command matched counts equal
    matched = ds.sample_cmd[ds.sample_label == 0]
    assert (np.bincount(matched, minlength=5) == 60).all()


def test_dataset_splits_disjoint_and_observation_clean(small_dataset):
    ds = small_dataset
    tr, va, te = set(ds.split_train.tolist()), set(ds.split_val.tolist()), set(ds.split_test.tolist())
    assert not (tr & va) and not (tr & te) and not (va & te)
    assert len(tr | va | te) == ds.n_samples()
    # no observation crosses splits
    tr_obs = set(ds.sample_obs[ds.split_train].tolist())
    va_obs = set(ds.sample_obs[ds.split_val].tolist())
    te_obs = set(ds.sample_obs[ds.split_test].tolist())
    assert not (tr_obs & te_obs) and not (tr_obs & va_obs) and not (va_obs & te_obs)


def test_dataset_matched_labels_refire(small_dataset):
    # the stored prev/next counters re-fire exactly the label: one goal, or none for nulls
    ds = small_dataset
    for label, ctr in zip(ds.obs_label, ds.obs_counters):
        expected = {int(label)} if label >= 0 else set()
        assert E.detect(ctr[:7], ctr[7:]) == expected


def test_dataset_hash_deterministic():
    a = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=21)
    b = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=21)
    assert a.hash() == b.hash()
    c = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=22)
    assert c.hash() != a.hash()


def test_dataset_hash_reads_the_arrays_in_place(small_dataset):
    want = hashlib.sha256()
    for arr in small_dataset.arrays().values():
        want.update(np.ascontiguousarray(arr).tobytes())
    assert small_dataset.hash() == want.hexdigest()
    assert small_dataset.spatial.nbytes > 1_000_000  # a copy of the frames would show
    tracemalloc.start()
    try:
        small_dataset.hash()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_dataset_arrays_are_read_only_and_a_view_passed_in_is_copied(small_dataset):
    for arr in small_dataset.arrays().values():
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0
    arrays = {name: arr.copy() for name, arr in small_dataset.arrays().items()}
    backing = np.stack([arrays["spatial"], arrays["spatial"]])
    arrays["spatial"] = backing[0]
    ds = M.MemDataset(**arrays)
    backing[0] += 1  # writes the caller's buffer, not the dataset's copy
    assert ds.hash() == small_dataset.hash()
    assert ds.nonspatial is arrays["nonspatial"]  # an array that owns its data is kept, now read-only
    with pytest.raises(ValueError, match="read-only"):
        arrays["nonspatial"][0, 0] = 1


def test_dataset_budget_failure_names_starving_command(monkeypatch):
    # pure-random play rarely trains marines; tiny budget must starve it
    monkeypatch.setattr(M, "EXPERT_MIX", 0.0)
    monkeypatch.setattr(M, "BUDGET_STEPS", 1500)
    with pytest.raises(M.DatasetError, match="train-marine"):
        M.generate_dataset(M.Quotas(per_command=50, nulls=50), seed=1)


@pytest.mark.parametrize(
    "field, quotas, seed",
    [("per_command", M.Quotas(True, 10), 0), ("per_command", M.Quotas(2.5, 10), 0),
     ("per_command", M.Quotas(-1, 10), 0), ("per_command", M.Quotas(0, 10), 0),
     ("nulls", M.Quotas(3, 6.5), 0), ("nulls", M.Quotas(3, -1), 0), ("nulls", M.Quotas(3, False), 0),
     ("seed", M.Quotas(3, 6), True), ("seed", M.Quotas(3, 6), -1), ("seed", M.Quotas(3, 6), 1.5)],
)
def test_generate_dataset_rejects_bad_quotas_or_seed_before_play(monkeypatch, field, quotas, seed):
    monkeypatch.setattr(M.E, "reset", None)  # no episode may start
    with pytest.raises(ValueError, match=field):
        M.generate_dataset(quotas, seed=seed)


def traced_rise(fn):
    """Peak traced bytes of a second ``fn()`` above the level after the first.

    The session starts before the first call, so buffers that call leaves
    cached are traced and their release during the second call counts.
    """
    tracemalloc.start()
    try:
        fn()
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_dataset_peak_memory_is_about_its_arrays():
    # each kept observation goes straight into its row: no second copy of the observations
    quotas = M.Quotas(per_command=25, nulls=100)
    nbytes = sum(a.nbytes for a in M.generate_dataset(quotas, seed=21).arrays().values())
    assert traced_rise(lambda: M.generate_dataset(quotas, seed=21)) < 1.3 * nbytes


def test_default_split_ratio_exact():
    # the shipped quota shape yields exactly 4:1:1
    ds = M.generate_dataset(M.Quotas(per_command=60, nulls=300), seed=11)
    assert ds.split_train.size == 600 and ds.split_val.size == 150 and ds.split_test.size == 150


# ---------------------------------------------------------------- training


def test_train_mem_smoke_and_model_selection(word_emb, commands, small_dataset):
    model, metrics = M.train_mem(small_dataset, word_emb, commands, M.MemTrainConfig(epochs=4), seed=5)
    assert len(metrics.train_loss) == len(metrics.val_loss) == len(metrics.val_acc) == 4
    assert metrics.best_epoch == int(np.argmin(metrics.val_loss))
    assert np.isfinite(metrics.test_acc)


@pytest.mark.parametrize(
    "field, value",
    [("epochs", 0), ("batch", 0), ("batch", -32), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
     ("weight_decay", -1e-3), ("epochs", 1.5), ("batch", 2.5), ("epochs", True),
     ("lr", float("inf")), ("weight_decay", float("inf")), ("weight_decay", float("nan")),
     ("seed", True), ("seed", -1), ("seed", 1.5)],
)
def test_train_mem_rejects_bad_config(monkeypatch, word_emb, commands, small_dataset, field, value):
    settings = {"seed": 5, field: value}
    seed = settings.pop("seed")
    cfg = dataclasses.replace(M.MemTrainConfig(epochs=1), **settings)
    built = count_models(monkeypatch)
    with pytest.raises(ValueError, match=field):
        M.train_mem(small_dataset, word_emb, commands, cfg, seed=seed)
    assert built == []


def count_models(monkeypatch):
    """The ``MemModel`` constructions ``mem`` makes from now on."""
    built, model = [], M.MemModel
    monkeypatch.setattr(M, "MemModel", lambda *args: built.append(args) or model(*args))
    return built


@pytest.mark.parametrize("quotas", [M.Quotas(2, 0), M.Quotas(1, 0)], ids=["no-train", "no-train-no-test"])
def test_train_mem_rejects_an_empty_split_before_building_a_model(monkeypatch, word_emb, commands, quotas):
    ds = M.generate_dataset(quotas, seed=11)
    built = count_models(monkeypatch)
    with pytest.raises(ValueError, match="empty split"):
        M.train_mem(ds, word_emb, commands, M.MemTrainConfig(epochs=1), seed=5)
    assert built == []


def test_a_command_set_missing_an_id_the_samples_name_is_rejected_before_encoding(tmp_path, monkeypatch, word_emb):
    path = tmp_path / "commands.json"
    path.write_text(json.dumps([{"id": c.id, "text": c.text} for c in M.load_commands()[:3]]), encoding="utf-8")
    three = M.load_commands(path)
    ds = M.generate_dataset(M.Quotas(3, 6), seed=11)  # its samples name ids 0-4
    model = M.MemModel(word_emb, np.random.default_rng(1))
    # the set still drives the shaping: with every distance below tau, the pointer wraps after command 2
    shaping = A.EpisodeShaping(A.AgentConfig(variant="narration", tau=1e3), model, three)
    obs = E.encode_observation(None, E.reset(0))
    shaping.start(obs)
    assert [shaping.bonus(obs, frozenset()) for _ in range(4)] == [1.0] * 4 and shaping.pointer == 1
    built = count_models(monkeypatch)
    with pytest.raises(ValueError, match="command id 4, but there are 3 commands"):
        M.train_mem(ds, word_emb, three, M.MemTrainConfig(epochs=1), seed=5)
    assert built == []
    model.encode_state_batch = model.encode_command_batch = None  # nothing may be encoded
    with pytest.raises(ValueError, match="command id 4, but there are 3 commands"):
        M.evaluate_mem(model, ds, ds.split_val, three, 2.5e-3)


def test_train_mem_train_loss_is_the_mean_of_each_epochs_batch_losses(monkeypatch, word_emb, commands):
    ds = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=21)
    losses = []
    mem_loss = M.mem_loss

    def recording(*args):
        loss, grads = mem_loss(*args)
        losses.append(loss)
        return loss, grads

    monkeypatch.setattr(M, "mem_loss", recording)
    cfg = M.MemTrainConfig(epochs=2)
    _, metrics = M.train_mem(ds, word_emb, commands, cfg, seed=9)
    per_epoch = -(-ds.split_train.size // cfg.batch)
    assert len(losses) == 2 * per_epoch
    assert metrics.train_loss == [float(np.mean(losses[:per_epoch])), float(np.mean(losses[per_epoch:]))]


def test_train_mem_deterministic(word_emb, commands):
    ds = M.generate_dataset(M.Quotas(per_command=25, nulls=100), seed=21)
    cfg = M.MemTrainConfig(epochs=2)
    m1, _ = M.train_mem(ds, word_emb, commands, cfg, seed=9)
    m2, _ = M.train_mem(ds, word_emb, commands, cfg, seed=9)
    assert m1.get_flat().tobytes() == m2.get_flat().tobytes()


def test_model_save_load_round_trip(tmp_path, word_emb, commands):
    model = M.MemModel(word_emb, np.random.default_rng(2))
    path = tmp_path / "mem.bin"
    model.save(path)
    loaded = M.MemModel.load(path)
    np.testing.assert_array_equal(loaded.get_flat(), model.get_flat())
    np.testing.assert_array_equal(loaded.word_embeddings.vectors, word_emb.vectors)
    assert loaded.word_embeddings.tokens == word_emb.tokens and loaded.word_embeddings.index == word_emb.index
    obs = E.encode_observation(None, E.reset(0))
    np.testing.assert_array_equal(loaded.encode_state(obs), model.encode_state(obs))
    np.testing.assert_array_equal(
        loaded.encode_command(commands[2]), model.encode_command(commands[2])
    )


@pytest.mark.parametrize(
    "word,match",
    [(None, "not a JSON object"), ([1], "not a JSON object"), ({"dim": 4}, "tokens"),
     ({"kind": "word-embeddings", "dim": 4, "tokens": ["<unk>", "build", "build"]}, "duplicate token"),
     ({"dim": "2", "tokens": ["a", "b"]}, "dim '2' is not a positive integer"),
     ({"dim": 0, "tokens": ["a", "b"]}, "dim 0 is not a positive integer"),
     ({"dim": 2, "tokens": ["a", 7]}, "tokens is not a list of strings"),
     ({"dim": 2, "tokens": "ab"}, "tokens is not a list of strings"),
     ({"dim": 10**6, "tokens": ["<unk>"]}, "values for 1 x 1000000 vectors")],  # more than the whole payload
    ids=["no-word", "word-list", "word-no-tokens", "word-duplicate-token", "dim-string", "dim-zero",
         "token-not-string", "tokens-not-list", "word-values-short"],
)
def test_model_load_rejects_malformed_word_spec(tmp_path, word_emb, word, match):
    model = M.MemModel(word_emb, np.random.default_rng(2))
    spec = {key: value for key, value in model.spec().items() if key != "word"}
    if word is not None:
        spec["word"] = word
    path = tmp_path / "mem.bin"
    save_model(path, spec, np.ones(model.n_params(), dtype=np.float32))
    with pytest.raises(ValueError, match=match):
        M.MemModel.load(path)


@pytest.mark.parametrize("extra", [-1, 1])
def test_model_load_rejects_wrong_parameter_count(tmp_path, word_emb, extra):
    model = M.MemModel(word_emb, np.random.default_rng(2))
    flat = np.concatenate([model.flat_params, word_emb.vectors.ravel()])
    cut = model.n_params() + min(extra, 0)  # one value more or fewer before the word vectors
    flat = np.concatenate([flat[:cut], np.ones(max(extra, 0), np.float32), flat[model.n_params() :]])
    path = tmp_path / "mem.bin"
    save_model(path, model.spec(), flat)
    with pytest.raises(ValueError, match="parameters"):
        M.MemModel.load(path)


def test_weight_penalty_sums_the_float64_squares_in_one_pass(word_emb):
    for seed, dtype in [(0, np.float32), (4, np.float32), (2, np.float64)]:
        model = bound(M.MemModel(word_emb, np.random.default_rng(seed)), dtype)
        params = np.concatenate([a.ravel() for a in model.param_arrays()])
        assert params.dtype == dtype and params.tobytes() == model.flat_params.tobytes()
        want = float((params.astype(np.float64) ** 2).sum())
        assert M.weight_penalty(model, 2.5e-3) == 2.5e-3 * want


# -------------------------------------------------------------- evaluation


def reference_evaluate_mem(model, dataset, sample_idx, commands, weight_decay, threshold, chunk, sample_states=None):
    """evaluate_mem encoding every sample's observation, chunk by chunk of samples,
    or scoring each sample's row of ``sample_states`` when given."""
    cmd_vecs = np.stack([model.encode_command(c) for c in commands])
    total_sq, correct = 0.0, 0
    for start in range(0, sample_idx.size, chunk):
        batch = dataset.batch(sample_idx[start : start + chunk])
        if sample_states is None:
            xs = model.encode_state_batch(batch.spatial, batch.nonspatial)
        else:
            xs = sample_states[start : start + chunk]
        diff = (xs - cmd_vecs[batch.command_ids]).astype(np.float64)
        dist = np.sqrt((diff * diff).sum(axis=1))
        err = dist - batch.labels
        total_sq += float((err * err).sum())
        correct += int(((dist < threshold) == (batch.labels == 0)).sum())
    penalty = weight_decay * sum(float((p.astype(np.float64) ** 2).sum()) for p in model.param_arrays())
    return total_sq / sample_idx.size + penalty, correct / sample_idx.size


def eval_sets(ds):
    """Sample lists: the full set, each split, a shuffled order and one with repeated samples."""
    rng = np.random.default_rng(12)
    return {
        "all": np.arange(ds.n_samples()),
        "train": ds.split_train,
        "val": ds.split_val,
        "test": ds.split_test,
        "shuffled": rng.permutation(ds.n_samples()),
        "repeats": rng.choice(ds.n_samples(), size=700),
    }


# near the median distance of the untrained model, so accuracy depends on each distance
EVAL_THRESHOLD = 2.6


@pytest.mark.parametrize("chunk", [64, 512])
@pytest.mark.parametrize("name", ["all", "train", "val", "test", "shuffled", "repeats"])
def test_evaluate_mem_bitwise_equals_per_sample_reference(word_emb, commands, small_dataset, name, chunk):
    ds, idx = small_dataset, eval_sets(small_dataset)[name]
    n_obs = np.unique(ds.sample_obs[idx]).size
    # a one-row chunk runs the dense products as vector products, which round differently
    assert idx.size % chunk != 1 and n_obs % chunk != 1
    model = M.MemModel(word_emb, np.random.default_rng(1))
    # no weight decay: added to the penalty (about 1.7), the sample sums lose their last bits
    got = M.evaluate_mem(model, ds, idx, commands, 0.0, EVAL_THRESHOLD, chunk=chunk)
    want = reference_evaluate_mem(model, ds, idx, commands, 0.0, EVAL_THRESHOLD, chunk)
    assert got == want
    assert 0.0 < got[1] < 1.0


def test_evaluate_mem_encodes_each_observation_once(word_emb, commands, small_dataset):
    ds = small_dataset
    idx = eval_sets(ds)["repeats"]
    model = M.MemModel(word_emb, np.random.default_rng(1))
    rows = []
    encode = model.encode_state_batch

    def counting_encode(spatial, nonspatial):
        rows.extend(s.tobytes() + n.tobytes() for s, n in zip(spatial, nonspatial))
        return encode(spatial, nonspatial)

    model.encode_state_batch = counting_encode
    M.evaluate_mem(model, ds, idx, commands, 2.5e-3, chunk=64)
    obs = np.unique(ds.sample_obs[idx])
    want = [ds.spatial[i].astype(np.float32).tobytes() + ds.nonspatial[i].tobytes() for i in obs]
    assert len(rows) == obs.size < idx.size
    assert sorted(rows) == sorted(want)


def samples_of(ds, n_obs, seed=0):
    """A shuffled sample list over ``n_obs`` distinct observations, every sample of each."""
    r = np.random.default_rng(seed)
    chosen = r.choice(np.unique(ds.sample_obs), size=n_obs, replace=False)
    return r.permutation(np.flatnonzero(np.isin(ds.sample_obs, chosen)))


BLOCK = M._ENCODE_BLOCK


@pytest.mark.parametrize(
    "n_obs", [1, 2, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 1, 6 * BLOCK, 6 * BLOCK + 1]
)
def test_evaluate_mem_encodes_blocks_with_the_bits_of_one_batch(word_emb, commands, small_dataset, n_obs):
    ds = small_dataset
    idx = samples_of(ds, n_obs)
    model = M.MemModel(word_emb, np.random.default_rng(1))
    obs, obs_row = np.unique(ds.sample_obs[idx], return_inverse=True)
    # a one-row batch runs its dense products as vector products, which round differently,
    # so the reference for one observation is the first row of a batch of two copies
    batch_obs = np.resize(obs, max(obs.size, 2))
    one_batch = model.encode_state_batch(ds.spatial[batch_obs].astype(np.float32), ds.nonspatial[batch_obs])[: obs.size]
    want = reference_evaluate_mem(model, ds, idx, commands, 0.0, EVAL_THRESHOLD, 100, one_batch[obs_row])
    blocks = []
    encode = model.encode_state_batch

    def recording(spatial, nonspatial):
        blocks.append(encode(spatial, nonspatial))
        return blocks[-1]

    model.encode_state_batch = recording
    got = M.evaluate_mem(model, ds, idx, commands, 0.0, EVAL_THRESHOLD, chunk=100)
    full, tail = divmod(n_obs, BLOCK)
    # full blocks, then the tail; a one-row tail runs as two copies of its row
    assert [b.shape[0] for b in blocks] == [BLOCK] * full + [max(tail, 2)] * (tail > 0)
    if tail == 1:
        assert blocks[-1][0].tobytes() == blocks[-1][1].tobytes()
        blocks[-1] = blocks[-1][:1]
    assert np.concatenate(blocks).tobytes() == one_batch.tobytes()
    assert got == want


def each_call_encodes(model, call):
    """``call`` run on the other of two parameter versions of ``model`` each time,
    so that no call reuses the state rows of the one before it."""
    versions = itertools.cycle([model.get_flat(), 0.5 * model.get_flat()])

    def run():
        model.set_flat(next(versions))
        return call()

    return run


def test_evaluate_mem_peak_memory_does_not_grow_with_the_observations(word_emb, commands, small_dataset):
    ds = small_dataset
    model = M.MemModel(word_emb, np.random.default_rng(1))

    def peak(idx):
        call = each_call_encodes(model, lambda: M.evaluate_mem(model, ds, idx, commands, 2.5e-3))
        call()  # the layers' caches now hold a block already
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(samples_of(ds, 4 * BLOCK)), peak(samples_of(ds, 8 * BLOCK))
    # only the state rows (256 bytes) and index arrays grow per observation; a batch of
    # all of them would add about 70 KB per observation (its patch matrix and frames)
    assert many - few < 1024 * 4 * BLOCK


def test_evaluate_mem_peak_memory_is_one_block(word_emb, commands, small_dataset):
    ds = small_dataset
    model = M.MemModel(word_emb, np.random.default_rng(1))
    everything = np.arange(ds.n_samples())
    frames = BLOCK * E.OBS_CHANNELS * E.GRID * E.GRID * 4  # one block's float32 observations
    patch = BLOCK * 6 * 6 * (E.OBS_CHANNELS * 5 * 5) * 4  # and its conv1 patch matrix
    # the margin covers the state rows, the index arrays and a scoring chunk's temporaries
    rise = traced_rise(each_call_encodes(model, lambda: M.evaluate_mem(model, ds, everything, commands, 2.5e-3)))
    assert rise < frames + patch + 1_000_000


def test_evaluate_mem_rejects_empty_sample_set(word_emb, commands, small_dataset):
    model = M.MemModel(word_emb, np.random.default_rng(1))
    with pytest.raises(ValueError, match="empty sample set"):
        M.evaluate_mem(model, small_dataset, np.zeros(0, dtype=np.int32), commands, 2.5e-3)


@pytest.mark.parametrize(
    "setting, value",
    [("chunk", 0), ("chunk", -5), ("threshold", 0.0), ("threshold", -1.0), ("threshold", float("nan")),
     ("weight_decay", -1.0), ("chunk", 1.5), ("chunk", 64.5), ("chunk", True),
     ("weight_decay", float("inf")), ("weight_decay", float("nan"))],
)
def test_evaluate_mem_rejects_settings_that_cannot_score(word_emb, commands, small_dataset, setting, value):
    model = M.MemModel(word_emb, np.random.default_rng(1))
    model.encode_state_batch = model.encode_command_batch = None  # nothing may be encoded
    settings = {"weight_decay": 2.5e-3, setting: value}
    with pytest.raises(ValueError, match=setting):
        M.evaluate_mem(model, small_dataset, small_dataset.split_val, commands, **settings)


def encodings(monkeypatch, model):
    """The calls ``model`` and every dataset make to encode or gather states from now on."""
    calls = []
    batch, encode = M.MemDataset.batch, model.encode_state_batch
    monkeypatch.setattr(M.MemDataset, "batch", lambda ds, idx: calls.append("batch") or batch(ds, idx))
    model.encode_state_batch = lambda *a: calls.append("encode") or encode(*a)
    return calls


def scored_fresh(word_emb, model, *args):
    """``evaluate_mem`` on a new model with ``model``'s parameters, whose store is empty."""
    fresh = M.MemModel(word_emb)
    fresh.set_flat(model.get_flat())
    return M.evaluate_mem(fresh, *args)


def test_evaluate_mem_scores_a_second_command_set_from_the_stored_state_rows(monkeypatch, word_emb, small_dataset):
    ds, idx = small_dataset, eval_sets(small_dataset)["repeats"]
    originals, alternates = M.load_commands(), M.load_commands(alternate=True)
    model = M.MemModel(word_emb, np.random.default_rng(1))
    M.evaluate_mem(model, ds, idx, originals, 2.5e-3, EVAL_THRESHOLD, chunk=64)
    orders = (idx, idx[::-1])  # the same distinct observations in another sample order hit too
    args = (alternates, 2.5e-3, EVAL_THRESHOLD, 64)
    want = [scored_fresh(word_emb, model, ds, samples, *args) for samples in orders]
    calls = encodings(monkeypatch, model)
    assert [M.evaluate_mem(model, ds, samples, *args) for samples in orders] == want
    assert calls == []


def take_adam_step(model, ds, idx):
    adam_step(model.flat_params, np.full(model.n_params(), 1e-3, np.float32), AdamState(model.n_params(), lr=1e-3))
    return ds, idx


def set_other_values(model, ds, idx):
    model.set_flat(M.MemModel(model.word_embeddings, np.random.default_rng(2)).get_flat())
    return ds, idx


def write_one_conv_weight(model, ds, idx):
    model.encoder.spatial_net.layers[0].weight[0, 0, 0, 0] += 0.25
    return ds, idx


def other_samples(model, ds, idx):
    return ds, ds.split_test


def copied_dataset(model, ds, idx):
    copies = {name: arr.copy() for name, arr in ds.arrays().items()}
    return M.MemDataset(**copies), idx


@pytest.mark.parametrize(
    "change", [take_adam_step, set_other_values, write_one_conv_weight, other_samples, copied_dataset]
)
def test_evaluate_mem_encodes_again_when_its_key_changes(monkeypatch, word_emb, small_dataset, change):
    originals, alternates = M.load_commands(), M.load_commands(alternate=True)
    model = M.MemModel(word_emb, np.random.default_rng(1))
    M.evaluate_mem(model, small_dataset, small_dataset.split_val, originals, 2.5e-3, EVAL_THRESHOLD)
    ds, idx = change(model, small_dataset, small_dataset.split_val)
    want = scored_fresh(word_emb, model, ds, idx, alternates, 2.5e-3, EVAL_THRESHOLD)
    calls = encodings(monkeypatch, model)
    assert M.evaluate_mem(model, ds, idx, alternates, 2.5e-3, EVAL_THRESHOLD) == want
    assert "batch" in calls and "encode" in calls


def obs_pool(ds, n_obs, seed=5):
    """``n_obs`` distinct observation ids of ``ds`` in a random order."""
    return np.random.default_rng(seed).choice(np.unique(ds.sample_obs), size=n_obs, replace=False)


def obs_samples(ds, obs, seed=0):
    """A shuffled list of every sample of the observations ``obs``."""
    return np.random.default_rng(seed).permutation(np.flatnonzero(np.isin(ds.sample_obs, obs)))


def frames_of(ds, obs):
    """The sorted float32 frame bytes of the observations ``obs``, one entry per observation."""
    return sorted(ds.spatial[i].astype(np.float32).tobytes() + ds.nonspatial[i].tobytes() for i in obs)


def recording_blocks(model):
    """The blocks ``model.encode_state_batch`` encodes from now on, each a list of its rows' frame bytes."""
    blocks = []
    encode = model.encode_state_batch

    def recording(spatial, nonspatial):
        blocks.append([s.tobytes() + n.tobytes() for s, n in zip(spatial, nonspatial)])
        return encode(spatial, nonspatial)

    model.encode_state_batch = recording
    return blocks


@pytest.mark.parametrize("relation", ["subset", "superset", "disjoint"])
def test_evaluate_mem_encodes_only_the_rows_its_store_lacks(word_emb, small_dataset, relation):
    ds = small_dataset
    originals, alternates = M.load_commands(), M.load_commands(alternate=True)
    pool = obs_pool(ds, 5 * BLOCK + 3)
    held = pool[: 3 * BLOCK]
    asked = {"subset": pool[BLOCK : 2 * BLOCK + 7], "superset": pool, "disjoint": pool[3 * BLOCK :]}[relation]
    model = M.MemModel(word_emb, np.random.default_rng(1))
    M.evaluate_mem(model, ds, obs_samples(ds, held), originals, 2.5e-3, EVAL_THRESHOLD)
    idx = obs_samples(ds, asked, seed=1)
    want = scored_fresh(word_emb, model, ds, idx, alternates, 2.5e-3, EVAL_THRESHOLD, 64)
    blocks = recording_blocks(model)
    assert M.evaluate_mem(model, ds, idx, alternates, 2.5e-3, EVAL_THRESHOLD, 64) == want
    assert sorted(itertools.chain(*blocks)) == frames_of(ds, np.setdiff1d(asked, held))
    assert all(2 <= len(b) <= BLOCK for b in blocks)


def test_evaluate_mem_encodes_a_single_lacking_row_beside_its_own_copy(word_emb, commands, small_dataset):
    ds = small_dataset
    pool = obs_pool(ds, 2 * BLOCK + 1)
    model = M.MemModel(word_emb, np.random.default_rng(1))
    M.evaluate_mem(model, ds, obs_samples(ds, pool[:-1]), commands, 2.5e-3, EVAL_THRESHOLD)
    idx = obs_samples(ds, pool, seed=1)
    want = scored_fresh(word_emb, model, ds, idx, commands, 2.5e-3, EVAL_THRESHOLD)
    blocks = recording_blocks(model)
    # encoded alone, the lacking row would round differently from a fresh model's
    assert M.evaluate_mem(model, ds, idx, commands, 2.5e-3, EVAL_THRESHOLD) == want
    assert blocks == [frames_of(ds, pool[-1:]) * 2]


def test_evaluate_mem_stores_the_batch_row_of_a_one_observation_call(word_emb, small_dataset):
    ds = small_dataset
    originals, alternates = M.load_commands(), M.load_commands(alternate=True)
    pool = obs_pool(ds, BLOCK)
    one, some = obs_samples(ds, pool[:1]), obs_samples(ds, pool)
    model = M.MemModel(word_emb, np.random.default_rng(1))
    fresh = M.MemModel(word_emb)
    fresh.set_flat(model.get_flat())
    want = M.evaluate_mem(fresh, ds, one, originals, 2.5e-3, EVAL_THRESHOLD)
    want_some = scored_fresh(word_emb, model, ds, some, alternates, 2.5e-3, EVAL_THRESHOLD)
    # a one-row pass rounds differently, so the row is the first of a batch of two copies
    two = np.repeat(pool[:1], 2)
    pair = model.encode_state_batch(ds.spatial[two].astype(np.float32), ds.nonspatial[two])
    blocks = recording_blocks(model)
    assert M.evaluate_mem(model, ds, one, originals, 2.5e-3, EVAL_THRESHOLD) == want
    rows, held = model._state_store[3:]
    assert np.flatnonzero(held).tolist() == [pool[0]]
    assert rows[pool[0]].tobytes() == fresh._state_store[3][pool[0]].tobytes() == pair[0].tobytes()
    # a later call on a superset takes that row from the store and encodes only the others
    assert M.evaluate_mem(model, ds, some, alternates, 2.5e-3, EVAL_THRESHOLD) == want_some
    assert blocks[0] == frames_of(ds, pool[:1]) * 2
    assert sorted(itertools.chain(*blocks[1:])) == frames_of(ds, pool[1:])


def test_scoring_after_train_mem_encodes_only_the_training_split(word_emb, commands, small_dataset):
    ds = small_dataset
    cfg = M.MemTrainConfig(epochs=4, lr=5e-3, weight_decay=0.0)
    model, metrics = M.train_mem(ds, word_emb, commands, cfg, seed=5)
    assert metrics.best_epoch < cfg.epochs - 1  # so the returned parameters are not the last epoch's
    everything = np.arange(ds.n_samples())
    want = scored_fresh(word_emb, model, ds, everything, commands, 2.5e-3)
    blocks = recording_blocks(model)
    assert M.evaluate_mem(model, ds, everything, commands, 2.5e-3) == want
    # the validation rows come from the best epoch and the test rows from the final scoring
    assert sorted(itertools.chain(*blocks)) == frames_of(ds, np.unique(ds.sample_obs[ds.split_train]))


def test_evaluate_mem_peak_memory_of_a_superset_call_stays_within_the_per_observation_bound(
    word_emb, commands, small_dataset
):
    ds = small_dataset
    model = M.MemModel(word_emb, np.random.default_rng(1))
    versions = itertools.cycle([model.get_flat(), 0.5 * model.get_flat()])
    pool = obs_pool(ds, 8 * BLOCK)
    few, superset = obs_samples(ds, pool[: 4 * BLOCK]), obs_samples(ds, pool)

    def peak(idx, held=None):
        """Peak traced bytes of scoring ``idx`` on a new parameter version, after scoring ``held`` on it."""
        M.evaluate_mem(model, ds, few, commands, 2.5e-3)  # the layers' caches now hold a block already
        model.set_flat(next(versions))
        if held is not None:
            M.evaluate_mem(model, ds, held, commands, 2.5e-3)
        tracemalloc.start()
        try:
            M.evaluate_mem(model, ds, idx, commands, 2.5e-3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # both calls encode 4 blocks; the superset call scores twice the observations from the store
    assert peak(superset, held=few) - peak(few) < 1024 * 4 * BLOCK


def test_evaluate_mem_keeps_no_row_of_earlier_parameters(word_emb, commands, small_dataset):
    ds = small_dataset
    pool = obs_pool(ds, 3 * BLOCK)
    model = M.MemModel(word_emb, np.random.default_rng(1))
    M.evaluate_mem(model, ds, obs_samples(ds, pool[: 2 * BLOCK]), commands, 2.5e-3)
    model.set_flat(M.MemModel(word_emb, np.random.default_rng(2)).get_flat())
    M.evaluate_mem(model, ds, obs_samples(ds, pool[BLOCK:]), commands, 2.5e-3)
    blocks = recording_blocks(model)
    M.evaluate_mem(model, ds, obs_samples(ds, pool), commands, 2.5e-3)  # reuses the rows of pool[BLOCK:]
    assert sorted(itertools.chain(*blocks)) == frames_of(ds, pool[:BLOCK])
    rows, held = model._state_store[3:]
    obs = np.sort(pool)
    assert np.array_equal(np.flatnonzero(held), obs)
    fresh = M.MemModel(word_emb)
    fresh.set_flat(model.get_flat())
    assert rows[obs].tobytes() == fresh.encode_state_batch(ds.spatial[obs].astype(np.float32), ds.nonspatial[obs]).tobytes()


def test_evaluate_mem_keeps_no_dataset_alive(word_emb, commands, small_dataset):
    ds = copied_dataset(None, small_dataset, None)[0]
    model = M.MemModel(word_emb, np.random.default_rng(1))
    M.evaluate_mem(model, ds, ds.split_val, commands, 2.5e-3)
    arrays = [weakref.ref(ds.spatial), weakref.ref(ds.nonspatial)]
    del ds
    gc.collect()
    assert all(ref() is None for ref in arrays)


def test_command_ids_align_with_detector_ids(commands):
    assert [c.id for c in commands] == list(range(5))
    assert commands[E.EV_BUILD_DEPOT].text == "build a supply depot"
    assert commands[E.EV_TRAIN_MARINE].text == "train a marine unit"
