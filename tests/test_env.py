from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from microbuild import env as E

GOLDEN_EXPERT_MARINES = 40  # frozen from the first full scripted rollout

DATA = Path(__file__).parent / "data"
ACTION_NAMES = ("noop", "select-worker", "build-depot", "build-barracks", "select-barracks", "train-marine")


def fingerprint(state: E.GameState) -> bytes:
    """Canonical byte encoding of a game state; equal iff the states are identical."""
    counts = [
        state.minerals,
        state.supply_used,
        state.supply_cap,
        state.sel_kind,
        state.sel_pos[0],
        state.sel_pos[1],
        state.n_workers,
        state.n_depots,
        state.n_barracks,
        state.n_marines,
        state.step,
        state.horizon,
    ]
    parts = [
        state.grid.tobytes(),
        np.int64(counts).tobytes(),
        repr(sorted(state.build_sites.items())).encode(),
        repr(sorted(state.train_jobs.items())).encode(),
        repr(state.workers).encode(),
        repr(state.barracks_list).encode(),
    ]
    return b"|".join(parts)


def expert_rollout(seed: int, max_steps: int | None = None):
    """Replay the scripted expert, returning (states, actions, rewards)."""
    s = E.reset(seed)
    states, actions, rewards = [s], [], []
    limit = max_steps if max_steps is not None else s.horizon
    while s.step < min(s.horizon, limit):
        a = E.scripted_expert(s)
        s, r, _ = E.step(s, a)
        states.append(s)
        actions.append(a)
        rewards.append(r)
    return states, actions, rewards


# ------------------------------------------------------------------ reset


def test_reset_initial_conditions():
    s = E.reset(0)
    assert s.n_workers == 5
    assert s.minerals == 50
    assert s.supply_cap == 0 and s.supply_used == 0
    assert s.n_depots == s.n_barracks == s.n_marines == 0
    assert s.sel_kind == E.SEL_NONE
    assert s.step == 0
    assert int((s.grid == E.CELL_WORKER).sum()) == 5
    assert int((s.grid == E.CELL_BASE).sum()) == 1


def test_reset_seed_determinism():
    a, b = E.reset(7), E.reset(7)
    assert fingerprint(a) == fingerprint(b)


def test_reset_seeds_vary_layout():
    assert fingerprint(E.reset(0)) != fingerprint(E.reset(1))


def reference_reset(seed: int) -> E.GameState:
    """``reset`` with its rings found by scanning the whole grid."""
    rng = np.random.default_rng(seed)
    grid = np.zeros((E.GRID, E.GRID), dtype=np.uint8)
    base = (int(rng.integers(5, 11)), int(rng.integers(5, 11)))
    grid[base] = E.CELL_BASE

    def ring(lo, hi):
        out = []
        for r in range(E.GRID):
            for c in range(E.GRID):
                d = max(abs(r - base[0]), abs(c - base[1]))
                if lo <= d <= hi and grid[r, c] == E.CELL_EMPTY:
                    out.append((r, c))
        return out

    patch_cells = ring(2, 3)
    for i in rng.choice(len(patch_cells), size=6, replace=False):
        grid[patch_cells[i]] = E.CELL_MINERAL
    worker_cells = ring(1, 2)
    idx = rng.choice(len(worker_cells), size=E.N_STARTING_WORKERS, replace=False)
    workers = tuple(sorted(worker_cells[i] for i in idx))
    for pos in workers:
        grid[pos] = E.CELL_WORKER
    state = E.reset(seed)
    state.grid, state.workers = grid, workers
    return state


def test_reset_layout_equals_full_grid_ring_scan():
    for seed in range(2000):
        assert fingerprint(E.reset(seed)) == fingerprint(reference_reset(seed)), seed


# ------------------------------------------------------------------- step


def test_illegal_action_degrades_to_noop():
    s0 = E.reset(0)
    s1, r, done = E.step(s0, E.Action(E.A_TRAIN_MARINE))
    assert r == 0.0 and not done
    assert s1.step == 1
    assert s1.minerals == s0.minerals + s0.n_workers
    assert s1.n_marines == 0 and not s1.train_jobs
    assert (s1.grid == s0.grid).all()


def test_depot_completes_exactly_20_steps_after_placement():
    s = E.reset(0)
    s, *_ = E.step(s, E.Action(E.A_SELECT_WORKER))
    while s.minerals < E.DEPOT_COST:
        s, *_ = E.step(s, E.NOOP)
    cell = int(E.free_cells(s)[0])
    target = (cell // E.GRID, cell % E.GRID)
    s, *_ = E.step(s, E.Action(E.A_BUILD_DEPOT, x=target[1], y=target[0]))
    placed_at = s.step
    assert s.build_sites and s.n_depots == 0
    prev = s
    while s.n_depots == 0:
        prev = s
        s, *_ = E.step(s, E.NOOP)
    assert s.step - placed_at == E.DEPOT_TIME
    assert s.supply_cap == E.SUPPLY_PER_DEPOT
    assert E.detect(prev, s) == {E.EV_BUILD_DEPOT}
    assert s.grid[target] == E.CELL_DEPOT


def test_reward_telescopes_to_marine_count():
    states, _, rewards = expert_rollout(0)
    assert sum(rewards) == states[-1].n_marines

    rng = np.random.default_rng(5)
    s = E.reset(2)
    total = 0.0
    while s.step < s.horizon:
        s, r, _ = E.step(s, E.random_legal_action(s, rng))
        total += r
    assert total == s.n_marines


def test_stepping_done_state_is_contract_violation():
    s = E.reset(0, horizon=3)
    for _ in range(3):
        s, _, done = E.step(s, E.NOOP)
    assert done
    with pytest.raises(E.ContractViolation):
        E.step(s, E.NOOP)


def test_mineral_ledger_exact():
    rng = np.random.default_rng(11)
    s = E.reset(4)
    costs = {E.CELL_DEPOT: E.DEPOT_COST, E.CELL_BARRACKS: E.BARRACKS_COST}
    while s.step < 400:
        prev = s
        s, _, _ = E.step(s, E.random_legal_action(s, rng))
        spend = prev.minerals + prev.n_workers - s.minerals
        new_sites = [k for k in s.build_sites if k not in prev.build_sites]
        new_jobs = [k for k in s.train_jobs if k not in prev.train_jobs]
        expected = sum(costs[s.build_sites[k].kind] for k in new_sites)
        expected += E.MARINE_COST * len(new_jobs)
        assert spend == expected


def test_supply_invariant_holds_under_random_play():
    rng = np.random.default_rng(3)
    s = E.reset(1)
    while s.step < s.horizon:
        assert s.supply_used <= s.supply_cap
        s, _, _ = E.step(s, E.random_legal_action(s, rng))
    assert s.supply_used <= s.supply_cap


def test_train_marine_blocked_exactly_at_supply_cap():
    # drive the expert until the barracks stands, then train without depots
    s = E.reset(0)
    while s.n_barracks == 0:
        s, *_ = E.step(s, E.scripted_expert(s))
    s, *_ = E.step(s, E.Action(E.A_SELECT_BARRACKS))
    while s.supply_used < s.supply_cap:
        mask = E.legal_actions(s)
        if mask[E.A_TRAIN_MARINE]:
            assert s.supply_used < s.supply_cap
            s, *_ = E.step(s, E.Action(E.A_TRAIN_MARINE))
        else:
            s, *_ = E.step(s, E.NOOP)
    assert s.supply_used == s.supply_cap
    assert not E.legal_actions(s)[E.A_TRAIN_MARINE]


def test_marines_monotone_and_counts_change_by_at_most_one():
    states, _, _ = expert_rollout(0)
    for prev, nxt in zip(states, states[1:]):
        assert nxt.n_marines >= prev.n_marines
        for attr in ("n_depots", "n_barracks", "n_marines"):
            assert getattr(nxt, attr) - getattr(prev, attr) in (0, 1)


def test_count_increment_produces_exactly_one_event():
    states, _, _ = expert_rollout(0)
    pairs = [
        ("n_depots", E.EV_BUILD_DEPOT),
        ("n_barracks", E.EV_BUILD_BARRACKS),
        ("n_marines", E.EV_TRAIN_MARINE),
    ]
    for prev, nxt in zip(states, states[1:]):
        events = E.detect(prev, nxt)
        for attr, ev in pairs:
            assert (getattr(nxt, attr) > getattr(prev, attr)) == (ev in events)


def test_same_seed_same_actions_bitwise_identical():
    rng = np.random.default_rng(9)
    s = E.reset(5)
    actions = []
    while s.step < 150:
        a = E.random_legal_action(s, rng)
        actions.append(a)
        s, _, _ = E.step(s, a)
    final_a = fingerprint(s)
    s = E.reset(5)
    for a in actions:
        s, _, _ = E.step(s, a)
    assert fingerprint(s) == final_a


# ----------------------------------------------------------- legal_actions


def test_initial_legal_mask():
    mask = E.legal_actions(E.reset(0))
    assert mask[E.A_NOOP] and mask[E.A_SELECT_WORKER]
    assert not mask[E.A_BUILD_DEPOT] and not mask[E.A_BUILD_BARRACKS]
    assert not mask[E.A_SELECT_BARRACKS] and not mask[E.A_TRAIN_MARINE]


def test_build_depot_legal_with_selected_worker_and_minerals():
    s = E.reset(0)
    s, *_ = E.step(s, E.Action(E.A_SELECT_WORKER))
    while s.minerals < E.DEPOT_COST:
        s, *_ = E.step(s, E.NOOP)
    mask = E.legal_actions(s)
    assert mask[E.A_BUILD_DEPOT]
    assert not mask[E.A_BUILD_BARRACKS]  # no depot yet


def self_play_states(seeds, expert_share: float, rng_seed: int):
    """Every state of seeded self-play episodes: the expert with probability
    ``expert_share``, else a random legal action."""
    rng = np.random.default_rng(rng_seed)
    out = []
    for seed in seeds:
        s = E.reset(seed)
        while s.step < s.horizon:
            out.append(s)
            a = E.scripted_expert(s) if rng.random() < expert_share else E.random_legal_action(s, rng)
            s, _, _ = E.step(s, a)
    return out


def instantiations(kind: int) -> list[E.Action]:
    if kind in E.BUILD_KINDS:
        return [E.Action(kind, x=x, y=y) for y in range(E.GRID) for x in range(E.GRID)]
    return [E.Action(kind)]


def step_applies(state: E.GameState, kind: int) -> bool:
    """Whether ``step`` applies some instantiation of ``kind`` rather than a NoOp.

    An applied action leaves another next state than NoOp does, except a
    select of the unit already selected; selects are therefore tried with
    the selection cleared (what is selected does not decide whether a
    select is legal).
    """
    if kind in (E.A_SELECT_WORKER, E.A_SELECT_BARRACKS):
        state = state.clone()
        state.sel_kind, state.sel_pos = E.SEL_NONE, (-1, -1)
    noop = fingerprint(E.step(state, E.NOOP)[0])
    return any(fingerprint(E.step(state, a)[0]) != noop for a in instantiations(kind))


def crowded_variants(state: E.GameState) -> list[E.GameState]:
    """The state with every empty cell taken by a marine, and with every
    worker busy on a far-off depot."""
    full = state.clone()
    full.grid[full.grid == E.CELL_EMPTY] = E.CELL_MARINE
    busy = state.clone()
    cells = [(int(c) // E.GRID, int(c) % E.GRID) for c in E.free_cells(state)]
    busy.build_sites = {cell: E.BuildSite(E.CELL_DEPOT, 100, w) for cell, w in zip(cells, state.workers)}
    return [full, busy]


def test_legal_actions_iff_step_applies_some_instantiation():
    # step resolves the timers first and judges the action on the result,
    # so the mask is read on that state
    states = self_play_states(range(2), 0.0, 3)[::25] + self_play_states(range(2, 4), 0.7, 4)[::25]
    builder = next(s for s in states if E.legal_actions(s)[E.A_BUILD_BARRACKS])
    states += crowded_variants(builder)
    seen = np.zeros((E.N_ACTIONS, 2), dtype=int)
    for s in states:
        ticked = s.clone()
        E._tick(ticked)
        mask = E.legal_actions(ticked)
        assert mask[E.A_NOOP]
        for kind in range(1, E.N_ACTIONS):
            assert mask[kind] == step_applies(s, kind), (s.step, kind)
            seen[kind, int(mask[kind])] += 1
    assert (seen[1:] > 0).all(), seen  # every id seen both legal and not


def reference_random_legal_action(state: E.GameState, rng: np.random.Generator) -> E.Action:
    """Uniform draw over the set bits of ``legal_actions``, then over ``free_cells`` for a build."""
    ids = np.flatnonzero(E.legal_actions(state))
    kind = int(ids[rng.integers(len(ids))])
    if kind in E.BUILD_KINDS:
        free = E.free_cells(state)
        cell = int(free[rng.integers(len(free))])
        return E.Action(kind, x=cell % E.GRID, y=cell // E.GRID)
    return E.Action(kind)


def test_random_legal_action_draws_as_mask_reference():
    rng, ref_rng, policy = np.random.default_rng(17), np.random.default_rng(17), np.random.default_rng(18)
    kinds = np.zeros(E.N_ACTIONS, dtype=int)
    steps = 0
    for seed in range(4):
        s = E.reset(seed)
        while s.step < s.horizon:
            a = E.random_legal_action(s, rng)
            assert a == reference_random_legal_action(s, ref_rng), (seed, s.step)
            kinds[a.kind] += 1
            steps += 1
            s, _, _ = E.step(s, E.scripted_expert(s) if policy.random() < 0.5 else a)
    assert steps >= 2000
    assert (kinds > 0).all(), kinds
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ------------------------------------------------------------------ detect


def test_detect_no_transition_no_events():
    s = E.reset(0)
    assert E.detect(s, s) == frozenset()


def test_detect_reselecting_same_worker_is_silent():
    s = E.reset(0)
    s1, *_ = E.step(s, E.Action(E.A_SELECT_WORKER))
    assert E.EV_SELECT_WORKER in E.detect(s, s1)
    s2, *_ = E.step(s1, E.Action(E.A_SELECT_WORKER))
    assert E.detect(s1, s2) == frozenset()


def test_detect_all_events_fire_in_expert_rollout():
    states, _, _ = expert_rollout(0)
    seen = set()
    for prev, nxt in zip(states, states[1:]):
        seen |= E.detect(prev, nxt)
    assert seen == set(range(E.N_COMMANDS))


# ----------------------------------------------------------- observations


def test_observation_initial_frame():
    s = E.reset(0)
    obs = E.encode_observation(None, s)
    assert obs.spatial.shape == (14, 16, 16)
    assert obs.nonspatial.shape == (10,)
    # worker layer is channel 2 within each 7-layer frame
    assert obs.spatial[2].sum() == 5 and obs.spatial[9].sum() == 5
    assert obs.spatial[6].sum() == 0 and obs.spatial[13].sum() == 0
    # duplicated frame at episode start
    np.testing.assert_array_equal(obs.spatial[:7], obs.spatial[7:])


def test_observation_selection_layer_after_select():
    s = E.reset(0)
    s1, *_ = E.step(s, E.Action(E.A_SELECT_WORKER))
    obs = E.encode_observation(s, s1)
    assert obs.spatial[6].sum() == 0  # frame t-1: nothing selected
    assert obs.spatial[13].sum() == 1  # frame t: exactly one cell


def test_observation_value_ranges():
    rng = np.random.default_rng(2)
    s = E.reset(3)
    prev = s
    for _ in range(200):
        obs = E.encode_observation(prev, s)
        assert set(np.unique(obs.spatial)) <= {0.0, 1.0}
        assert (obs.nonspatial >= 0.0).all() and (obs.nonspatial <= 1.0).all()
        assert obs.nonspatial[0] == min(s.minerals / 1000.0, 1.0)
        prev = s
        s, _, _ = E.step(s, E.random_legal_action(s, rng))


def test_observation_deterministic():
    s = E.reset(0)
    a = E.encode_observation(s, s)
    b = E.encode_observation(s, s)
    assert a.spatial.tobytes() == b.spatial.tobytes()
    assert a.nonspatial.tobytes() == b.nonspatial.tobytes()


def reference_observation(prev: E.GameState, state: E.GameState) -> E.Observation:
    """``encode_observation`` as a zeroed array filled frame by frame, its
    scalars clipped as a float32 array."""
    spatial = np.zeros((E.OBS_CHANNELS, E.GRID, E.GRID), dtype=np.float32)
    for frame, s in ((spatial[:7], prev), (spatial[7:], state)):
        for k, cell in enumerate(range(E.CELL_BASE, E.CELL_MARINE + 1)):
            frame[k] = s.grid == cell
        if s.sel_kind != E.SEL_NONE:
            frame[6][s.sel_pos] = 1.0
    nonspatial = np.array(
        [
            state.minerals / 1000.0,
            state.supply_used / 64.0,
            state.supply_cap / 64.0,
            state.n_workers / 32.0,
            state.n_depots / 32.0,
            state.n_barracks / 32.0,
            state.n_marines / 32.0,
            state.sel_kind == E.SEL_NONE,
            state.sel_kind == E.SEL_WORKER,
            state.sel_kind == E.SEL_BARRACKS,
        ],
        dtype=np.float32,
    )
    np.clip(nonspatial, 0.0, 1.0, out=nonspatial)
    return E.Observation(spatial, nonspatial)


def assert_same_observation(obs: E.Observation, ref: E.Observation) -> None:
    for got, want in ((obs.spatial, ref.spatial), (obs.nonspatial, ref.nonspatial)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("policy", ["expert", "random"])
@pytest.mark.parametrize("seed", [0, 5])
def test_episode_observations_equal_encode_observation(policy, seed):
    """Every observation an ``Episode`` returns, at the start, after each
    step and from a mid-episode ``observe``, equals ``encode_observation``
    of its (prev, state) pair, and that equals the reference encoding. The
    caller scribbles over each returned observation, which must not reach
    a later one, and a later step must not write into an earlier one."""
    rng = np.random.default_rng(seed)
    ep = E.Episode(seed)
    obs = ep.observe()
    done = False
    while True:
        assert_same_observation(obs, E.encode_observation(ep.prev, ep.state))
        assert_same_observation(obs, reference_observation(ep.prev, ep.state))
        obs.spatial.fill(7.0)
        obs.nonspatial.fill(7.0)
        if done:
            break
        if ep.state.step % 97 == 50:
            assert_same_observation(ep.observe(), reference_observation(ep.prev, ep.state))
        action = E.scripted_expert(ep.state) if policy == "expert" else E.random_legal_action(ep.state, rng)
        held = obs
        obs, _, done, _ = ep.step(action)
        assert (held.spatial == 7.0).all() and (held.nonspatial == 7.0).all()
    # a cap binds by the end: more than 32 depots or marines
    assert max(ep.state.n_depots, ep.state.n_marines) > 32


# --------------------------------------------------------- scripted expert


def test_expert_first_action_selects_worker():
    assert E.scripted_expert(E.reset(0)).kind == E.A_SELECT_WORKER


def test_expert_reaches_golden_marine_count():
    states, _, _ = expert_rollout(0)
    assert states[-1].n_marines == GOLDEN_EXPERT_MARINES
    assert states[-1].n_marines >= 20


def test_random_policy_bounded_by_oracle():
    rng = np.random.default_rng(123)
    scores = []
    for seed in range(5):
        s = E.reset(seed)
        total = 0.0
        while s.step < s.horizon:
            s, r, _ = E.step(s, E.random_legal_action(s, rng))
            total += r
        scores.append(total)
    assert all(0.0 <= sc <= GOLDEN_EXPERT_MARINES for sc in scores)


# -------------------------------------------------------- trajectory dump


def trajectory_records(seed: int, actions: list[E.Action]) -> list[dict]:
    """Replay actions from ``reset(seed)`` into one JSON-able record per step."""
    state = E.reset(seed)
    records = []
    for action in actions:
        prev = state
        state, reward, done = E.step(state, action)
        records.append(
            {
                "step": state.step,
                "action": {
                    "id": action.kind,
                    "name": ACTION_NAMES[action.kind],
                    "x": action.x if action.kind in E.BUILD_KINDS else None,
                    "y": action.y if action.kind in E.BUILD_KINDS else None,
                },
                "reward": reward,
                "counts": {
                    "minerals": state.minerals,
                    "supply_used": state.supply_used,
                    "supply_cap": state.supply_cap,
                    "workers": state.n_workers,
                    "depots": state.n_depots,
                    "barracks": state.n_barracks,
                    "marines": state.n_marines,
                },
                "events": sorted(E.EVENT_NAMES[e] for e in E.detect(prev, state)),
            }
        )
        if done:
            break
    return records


def test_trajectory_matches_golden_file():
    s = E.reset(0)
    actions = []
    for _ in range(80):
        a = E.scripted_expert(s)
        actions.append(a)
        s, _, _ = E.step(s, a)
    records = trajectory_records(0, actions)
    golden = [json.loads(line) for line in (DATA / "expert_trace_seed0.jsonl").read_text().splitlines()]
    assert records == golden


def test_trajectory_record_fields():
    records = trajectory_records(0, [E.Action(E.A_SELECT_WORKER), E.NOOP])
    assert [sorted(r.keys()) for r in records] == [["action", "counts", "events", "reward", "step"]] * 2
    assert records[0]["events"] == ["select-worker"]
