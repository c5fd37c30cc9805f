"""MicroBuild: a deterministic, seedable build-order mini-game.

One base and five workers mine a steady mineral income. Supply depots
raise the supply cap, one barracks trains marines, and the episode score
is the number of marines completed. Reward is sparse: +1 exactly when a
marine finishes. Rule-based detectors report goal transitions (used both
for subtask shaping and for labeling embedding-training data).

States are immutable-by-convention: ``step`` clones, mutates the clone and
returns it, so callers can hold (prev, next) pairs for transition checks.
Workers never move; a worker building something is busy until the site
completes. Construction sites are tracked off-grid and drawn only once
finished, so a completion is visible as a new unit in the frame stack.

Each rule is written once. ``_id_legality`` decides every action id's
legality, apart from a build's target cell, for ``step`` and
``scripted_expert``; ``_legal_kinds`` adds the rule that a build needs a
free cell, for ``legal_actions`` and ``random_legal_action``.
``free_cells`` decides which cells take a build or a new marine.
``detect`` over ``counters`` is the one detector: episodes and the
embedding dataset's labels both use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

GRID = 16
HORIZON = 720

CELL_EMPTY, CELL_BASE, CELL_MINERAL, CELL_WORKER, CELL_DEPOT, CELL_BARRACKS, CELL_MARINE = range(7)

A_NOOP, A_SELECT_WORKER, A_BUILD_DEPOT, A_BUILD_BARRACKS, A_SELECT_BARRACKS, A_TRAIN_MARINE = range(6)
N_ACTIONS = 6
BUILD_KINDS = (A_BUILD_DEPOT, A_BUILD_BARRACKS)

DEPOT_COST, BARRACKS_COST, MARINE_COST = 100, 150, 50
DEPOT_TIME, BARRACKS_TIME, MARINE_TIME = 20, 30, 15
SUPPLY_PER_DEPOT = 8
N_STARTING_WORKERS = 5
STARTING_MINERALS = 50

SEL_NONE, SEL_WORKER, SEL_BARRACKS = 0, 1, 2

# detector / command ids (shared with the command set files)
EV_SELECT_WORKER, EV_BUILD_DEPOT, EV_BUILD_BARRACKS, EV_SELECT_BARRACKS, EV_TRAIN_MARINE = range(5)
N_COMMANDS = 5
EVENT_NAMES = ("select-worker", "build-depot", "build-barracks", "select-barracks", "train-marine")

OBS_CHANNELS = 14  # 2 frames x (6 unit-type layers + 1 selection layer)
OBS_NONSPATIAL = 10


class ContractViolation(RuntimeError):
    """An operation was called outside its stated preconditions."""


class Action(NamedTuple):
    kind: int
    x: int = 0  # column, build actions only
    y: int = 0  # row, build actions only


NOOP = Action(A_NOOP)


class BuildSite(NamedTuple):
    kind: int  # CELL_DEPOT or CELL_BARRACKS
    timer: int
    worker: tuple[int, int]


@dataclass
class GameState:
    grid: np.ndarray  # (GRID, GRID) uint8 cell types; sites not drawn
    minerals: int
    supply_used: int
    supply_cap: int
    sel_kind: int
    sel_pos: tuple[int, int]
    workers: tuple[tuple[int, int], ...]  # fixed positions
    build_sites: dict[tuple[int, int], BuildSite]
    train_jobs: dict[tuple[int, int], int]  # barracks pos -> countdown
    n_workers: int
    n_depots: int
    n_barracks: int
    n_marines: int
    step: int
    horizon: int = HORIZON
    barracks_list: list[tuple[int, int]] = field(default_factory=list)

    def clone(self) -> "GameState":
        """A copy that shares only immutable fields (the dataclass ``__init__`` is skipped)."""
        new = object.__new__(GameState)
        new.__dict__ = self.__dict__.copy()
        new.grid = self.grid.copy()
        new.build_sites = self.build_sites.copy()
        new.train_jobs = self.train_jobs.copy()
        new.barracks_list = self.barracks_list.copy()
        return new

    def busy_workers(self) -> set[tuple[int, int]]:
        return {site.worker for site in self.build_sites.values()}

    def first_idle_worker(self) -> tuple[int, int] | None:
        busy = self.busy_workers()
        for pos in self.workers:
            if pos not in busy:
                return pos
        return None

    def is_free(self, pos: tuple[int, int]) -> bool:
        return self.grid[pos] == CELL_EMPTY and pos not in self.build_sites


@dataclass
class Observation:
    spatial: np.ndarray  # (14, 16, 16) float32 in {0, 1}
    nonspatial: np.ndarray  # (10,) float32 in [0, 1]


def reset(seed: int, horizon: int = HORIZON) -> GameState:
    """Initial state: 1 base, 5 workers, 50 minerals. Layout varies by seed."""
    rng = np.random.default_rng(seed)
    grid = np.zeros((GRID, GRID), dtype=np.uint8)
    base = (int(rng.integers(5, 11)), int(rng.integers(5, 11)))
    grid[base] = CELL_BASE

    def ring(lo, hi):
        """Empty cells at Chebyshev distance lo..hi from the base, row-major;
        only the (2 * hi + 1)^2 box around the base can hold them."""
        r0, c0 = base
        rows = range(max(r0 - hi, 0), min(r0 + hi + 1, GRID))
        cols = range(max(c0 - hi, 0), min(c0 + hi + 1, GRID))
        return [
            (r, c)
            for r in rows
            for c in cols
            if lo <= max(abs(r - r0), abs(c - c0)) and grid[r, c] == CELL_EMPTY
        ]

    patch_cells = ring(2, 3)
    idx = rng.choice(len(patch_cells), size=6, replace=False)
    for i in idx:
        grid[patch_cells[i]] = CELL_MINERAL

    worker_cells = ring(1, 2)
    idx = rng.choice(len(worker_cells), size=N_STARTING_WORKERS, replace=False)
    workers = tuple(sorted(worker_cells[i] for i in idx))
    for pos in workers:
        grid[pos] = CELL_WORKER

    return GameState(
        grid=grid,
        minerals=STARTING_MINERALS,
        supply_used=0,
        supply_cap=0,
        sel_kind=SEL_NONE,
        sel_pos=(-1, -1),
        workers=workers,
        build_sites={},
        train_jobs={},
        n_workers=N_STARTING_WORKERS,
        n_depots=0,
        n_barracks=0,
        n_marines=0,
        step=0,
        horizon=horizon,
    )


def free_cells(state: GameState) -> np.ndarray:
    """Flat indices (row * GRID + col), ascending, of empty cells with no site.

    These are the cells a build may target and a new marine may spawn on.
    """
    free = state.grid.reshape(-1) == CELL_EMPTY
    for r, c in state.build_sites:
        free[r * GRID + c] = False
    return np.flatnonzero(free)


def _nearest_free_cell(state: GameState, center: tuple[int, int]) -> tuple[int, int] | None:
    """Free cell nearest ``center`` (Chebyshev distance); ties go to the lowest (row, col)."""
    free = free_cells(state)
    if free.size == 0:
        return None
    dist = np.maximum(np.abs(free // GRID - center[0]), np.abs(free % GRID - center[1]))
    cell = int(free[np.argmin(dist)])
    return cell // GRID, cell % GRID


def _tick(state: GameState) -> None:
    for pos in sorted(state.build_sites) if state.build_sites else ():
        site = state.build_sites[pos]
        timer = site.timer - 1
        if timer > 0:
            state.build_sites[pos] = BuildSite(site.kind, timer, site.worker)
            continue
        del state.build_sites[pos]
        state.grid[pos] = site.kind
        if site.kind == CELL_DEPOT:
            state.n_depots += 1
            state.supply_cap = SUPPLY_PER_DEPOT * state.n_depots
        else:
            state.n_barracks += 1
            state.barracks_list.append(pos)
    for pos in sorted(state.train_jobs) if state.train_jobs else ():
        timer = state.train_jobs[pos] - 1
        if timer > 0:
            state.train_jobs[pos] = timer
            continue
        spawn = _nearest_free_cell(state, pos)
        if spawn is None:
            state.train_jobs[pos] = 1  # grid full: retry next step
            continue
        del state.train_jobs[pos]
        state.grid[spawn] = CELL_MARINE
        state.n_marines += 1


def _can_train_at(state: GameState, barracks: tuple[int, int]) -> bool:
    return (
        state.minerals >= MARINE_COST
        and state.supply_used < state.supply_cap
        and barracks not in state.train_jobs
    )


def _idle_worker_selected(state: GameState, busy: set[tuple[int, int]]) -> bool:
    return state.sel_kind == SEL_WORKER and state.sel_pos not in busy


def _id_legality(state: GameState) -> tuple[bool, ...]:
    """Legality of each action id, apart from the build target's cell."""
    busy = state.busy_workers()
    idle_selected = _idle_worker_selected(state, busy)
    return (
        True,  # A_NOOP
        not busy.issuperset(state.workers),  # A_SELECT_WORKER: some worker is idle
        idle_selected and state.minerals >= DEPOT_COST,  # A_BUILD_DEPOT
        idle_selected and state.minerals >= BARRACKS_COST and state.n_depots >= 1,  # A_BUILD_BARRACKS
        state.n_barracks > 0,  # A_SELECT_BARRACKS
        state.sel_kind == SEL_BARRACKS and _can_train_at(state, state.sel_pos),  # A_TRAIN_MARINE
    )


def _legal_kinds(state: GameState) -> tuple[tuple[bool, ...], np.ndarray | None]:
    """Whether each action id has a legal instantiation, and the free cells
    when ``_id_legality`` allows a build: a build also needs a free cell."""
    legal = _id_legality(state)
    if not (legal[A_BUILD_DEPOT] or legal[A_BUILD_BARRACKS]):
        return legal, None
    free = free_cells(state)
    if free.size == 0:
        legal = tuple(ok and kind not in BUILD_KINDS for kind, ok in enumerate(legal))
    return legal, free


def legal_actions(state: GameState) -> np.ndarray:
    """Mask over the 6 action ids: bit set iff some instantiation is legal."""
    return np.array(_legal_kinds(state)[0])


def step(state: GameState, action: Action) -> tuple[GameState, float, bool]:
    """Advance one tick. Illegal or unaffordable actions degrade to NoOp.

    Reward equals the number of marines completed during the tick. Order:
    running timers resolve first, then the action applies, then income.
    """
    if state.step >= state.horizon:
        raise ContractViolation(f"step called on a finished episode (step={state.step})")
    marines_before = state.n_marines
    nxt = state.clone()
    _tick(nxt)
    kind = action.kind
    target = (action.y, action.x)
    if 0 <= kind < N_ACTIONS and _id_legality(nxt)[kind] and (
        kind not in BUILD_KINDS or (0 <= action.x < GRID and 0 <= action.y < GRID and nxt.is_free(target))
    ):
        if kind == A_SELECT_WORKER:
            pos = nxt.first_idle_worker()
            nxt.sel_kind, nxt.sel_pos = SEL_WORKER, pos
        elif kind == A_SELECT_BARRACKS:
            nxt.sel_kind, nxt.sel_pos = SEL_BARRACKS, nxt.barracks_list[0]
        elif kind == A_TRAIN_MARINE:
            nxt.minerals -= MARINE_COST
            nxt.supply_used += 1
            nxt.train_jobs[nxt.sel_pos] = MARINE_TIME
        elif kind == A_BUILD_DEPOT:
            nxt.minerals -= DEPOT_COST
            nxt.build_sites[target] = BuildSite(CELL_DEPOT, DEPOT_TIME, nxt.sel_pos)
        elif kind == A_BUILD_BARRACKS:
            nxt.minerals -= BARRACKS_COST
            nxt.build_sites[target] = BuildSite(CELL_BARRACKS, BARRACKS_TIME, nxt.sel_pos)
    nxt.minerals += nxt.n_workers
    nxt.step += 1
    reward = float(nxt.n_marines - marines_before)
    return nxt, reward, nxt.step >= nxt.horizon


def counters(state: GameState) -> tuple[int, ...]:
    """Everything the detectors read: unit counts and the selection.

    Layout: (workers, depots, barracks, marines, sel_kind, sel_row, sel_col),
    as stored per frame in the embedding dataset.
    """
    return (state.n_workers, state.n_depots, state.n_barracks, state.n_marines, state.sel_kind, *state.sel_pos)


_SELECT_EVENT = {SEL_WORKER: EV_SELECT_WORKER, SEL_BARRACKS: EV_SELECT_BARRACKS}


def detect(prev, nxt) -> frozenset[int]:
    """Goal-transition detectors; fire only on actual change.

    Takes two states or two counter vectors (see ``counters``).
    """
    if isinstance(prev, GameState):
        prev, nxt = counters(prev), counters(nxt)
    events = []
    if nxt[1] > prev[1]:
        events.append(EV_BUILD_DEPOT)
    if nxt[2] > prev[2]:
        events.append(EV_BUILD_BARRACKS)
    if nxt[3] > prev[3]:
        events.append(EV_TRAIN_MARINE)
    sel = nxt[4]
    if sel in _SELECT_EVENT and (prev[4] != sel or prev[5] != nxt[5] or prev[6] != nxt[6]):
        events.append(_SELECT_EVENT[sel])
    return frozenset(events)


_UNIT_TYPES = np.arange(CELL_BASE, CELL_MARINE + 1, dtype=np.uint8).reshape(6, 1, 1)


def _frame_layers(state: GameState, out: np.ndarray) -> None:
    np.equal(state.grid, _UNIT_TYPES, out=out[:6])
    out[6] = 0.0
    if state.sel_kind != SEL_NONE:
        out[(6, *state.sel_pos)] = 1.0


def encode_observation(prev_state: GameState | None, state: GameState) -> Observation:
    """Two stacked frames of unit-type + selection layers, plus scalars.

    ``prev_state=None`` duplicates the current frame (episode start).
    """
    if prev_state is None:
        prev_state = state
    spatial = np.empty((OBS_CHANNELS, GRID, GRID), dtype=np.float32)
    _frame_layers(prev_state, spatial[:7])
    _frame_layers(state, spatial[7:])
    # Scalars are never negative and 0 and 1 are exact, so capping each
    # one before the float32 array is built equals clipping after.
    sel = state.sel_kind
    nonspatial = np.array(
        [
            min(state.minerals / 1000.0, 1.0),
            min(state.supply_used / 64.0, 1.0),
            min(state.supply_cap / 64.0, 1.0),
            min(state.n_workers / 32.0, 1.0),
            min(state.n_depots / 32.0, 1.0),
            min(state.n_barracks / 32.0, 1.0),
            min(state.n_marines / 32.0, 1.0),
            1.0 if sel == SEL_NONE else 0.0,
            1.0 if sel == SEL_WORKER else 0.0,
            1.0 if sel == SEL_BARRACKS else 0.0,
        ],
        dtype=np.float32,
    )
    return Observation(spatial=spatial, nonspatial=nonspatial)


def scripted_expert(state: GameState) -> Action:
    """Deterministic build order: keep supply ahead, one barracks, train.

    Builds a depot whenever headroom drops below 2, builds exactly one
    barracks, then loops TrainMarine, pre-selecting units as needed.
    """
    pending = {site.kind for site in state.build_sites.values()}
    depot_wanted = (
        state.supply_cap - state.supply_used < 2 and CELL_DEPOT not in pending
    )
    barracks_wanted = (
        state.n_barracks == 0 and CELL_BARRACKS not in pending and state.n_depots >= 1
    )
    if depot_wanted or barracks_wanted:
        legal = _id_legality(state)
        if not _idle_worker_selected(state, state.busy_workers()):
            return Action(A_SELECT_WORKER) if legal[A_SELECT_WORKER] else NOOP
        kind = A_BUILD_DEPOT if depot_wanted else A_BUILD_BARRACKS
        if not legal[kind]:
            return NOOP
        free = free_cells(state)
        if free.size == 0:
            return NOOP
        return Action(kind, x=int(free[0]) % GRID, y=int(free[0]) // GRID)
    if state.n_barracks >= 1:
        rax = state.barracks_list[0]
        if _can_train_at(state, rax):
            if state.sel_kind == SEL_BARRACKS and state.sel_pos == rax:
                return Action(A_TRAIN_MARINE)
            return Action(A_SELECT_BARRACKS)
    return NOOP


def random_legal_action(state: GameState, rng: np.random.Generator) -> Action:
    """Uniform over legal action ids; build targets uniform over free cells."""
    legal, free = _legal_kinds(state)
    ids = [kind for kind, ok in enumerate(legal) if ok]
    kind = ids[rng.integers(len(ids))]
    if kind in BUILD_KINDS:
        cell = int(free[rng.integers(len(free))])
        return Action(kind, x=cell % GRID, y=cell // GRID)
    return Action(kind)


class Episode:
    """Stateful convenience wrapper holding the (prev, current) frame pair."""

    def __init__(self, seed: int, horizon: int = HORIZON):
        self.state = reset(seed, horizon)
        self.prev = self.state
        self.score = 0.0

    def observe(self) -> Observation:
        return encode_observation(self.prev, self.state)

    def legal_mask(self) -> np.ndarray:
        return legal_actions(self.state)

    def step(self, action: Action) -> tuple[Observation, float, bool, frozenset[int]]:
        self.prev = self.state
        self.state, reward, done = step(self.state, action)
        self.score += reward
        events = detect(self.prev, self.state)
        return encode_observation(self.prev, self.state), reward, done, events
