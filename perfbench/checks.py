"""Output checks for the benchmark workloads.

Each check compares a workload's output either with a computation made here,
independently of the program, or with a property the method must have. None
of them compares with a stored copy of an earlier output. A check returns a
list of problems; an empty list means it holds.
"""

from __future__ import annotations

import numpy as np

THRESHOLD = 0.5  # satisfied iff state/command distance is below this
TOL = 1e-6

# counter layout per frame, as stored in MemDataset.obs_counters (prev, next)
WORKERS, DEPOTS, BARRACKS, MARINES, SEL_KIND, SEL_R, SEL_C = range(7)
SEL_WORKER_KIND, SEL_BARRACKS_KIND = 1, 2
# command ids, as numbered in the shipped command files
CMD_SELECT_WORKER, CMD_BUILD_DEPOT, CMD_BUILD_BARRACKS, CMD_SELECT_BARRACKS, CMD_TRAIN_MARINE = range(5)


def events_from_counters(prev: np.ndarray, nxt: np.ndarray) -> set[int]:
    """Every goal the transition completes, from the game's rules alone."""
    events = set()
    for counter, cmd in ((DEPOTS, CMD_BUILD_DEPOT), (BARRACKS, CMD_BUILD_BARRACKS), (MARINES, CMD_TRAIN_MARINE)):
        if nxt[counter] > prev[counter]:
            events.add(cmd)
    moved = (prev[SEL_R], prev[SEL_C]) != (nxt[SEL_R], nxt[SEL_C])
    for kind, cmd in ((SEL_WORKER_KIND, CMD_SELECT_WORKER), (SEL_BARRACKS_KIND, CMD_SELECT_BARRACKS)):
        if nxt[SEL_KIND] == kind and (prev[SEL_KIND] != kind or moved):
            events.add(cmd)
    return events


def check_dataset_labels(obs_label: np.ndarray, obs_counters: np.ndarray, nonspatial: np.ndarray) -> list[str]:
    """Goal observations complete exactly their labelled goal, nulls none.

    Also ties each observation to its counters: the unit counts and the
    selection one-hot in the non-spatial features describe the next frame.
    """
    problems = []
    for i, (label, ctr) in enumerate(zip(obs_label, obs_counters)):
        prev, nxt = ctr[:7], ctr[7:]
        want = {int(label)} if label >= 0 else set()
        got = events_from_counters(prev, nxt)
        if got != want:
            problems.append(f"observation {i}: label {int(label)} but counters give events {sorted(got)}")
        counts = np.rint(nonspatial[i, 3:7] * 32).astype(int)  # features saturate at 32
        if counts.tolist() != [min(int(v), 32) for v in nxt[WORKERS : MARINES + 1]]:
            problems.append(f"observation {i}: unit counts {counts.tolist()} disagree with counters")
        if int(np.argmax(nonspatial[i, 7:10])) != int(nxt[SEL_KIND]):
            problems.append(f"observation {i}: selection features disagree with counters")
        if len(problems) >= 5:
            break
    return problems


def check_splits(sample_obs: np.ndarray, splits: dict[str, np.ndarray]) -> list[str]:
    """Splits partition the samples and share no observation."""
    problems = []
    idx = np.concatenate(list(splits.values()))
    if np.sort(idx).tolist() != list(range(sample_obs.size)):
        problems.append("splits do not partition the samples")
    names = list(splits)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            shared = np.intersect1d(sample_obs[splits[names[a]]], sample_obs[splits[names[b]]])
            if shared.size:
                problems.append(f"splits {names[a]} and {names[b]} share {shared.size} observations")
    return problems


def distances(state_vecs: np.ndarray, command_vecs: np.ndarray, sample_cmd: np.ndarray) -> np.ndarray:
    diff = state_vecs.astype(np.float64) - command_vecs.astype(np.float64)[sample_cmd]
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def check_grounding(dist: np.ndarray, labels: np.ndarray, reported_acc: float, what: str) -> list[str]:
    """Accuracy recomputed from embeddings matches the reported one, beats the
    split's majority-label rate, and matched pairs sit closer than mismatched.

    ``dist`` is the distance of every sample, from single-observation
    encodes; the reported accuracy comes from batched encodes, so samples
    within float32 rounding of the threshold may be scored either way.
    """
    problems = []
    matched = labels == 0
    acc = float(((dist < THRESHOLD) == matched).mean())
    borderline = int((np.abs(dist - THRESHOLD) < 1e-4).sum())
    if abs(acc - reported_acc) * labels.size > borderline + 1e-9:
        problems.append(f"{what}: reported accuracy {reported_acc:.4f}, recomputed {acc:.4f}")
    majority = max(matched.mean(), 1.0 - matched.mean())
    if not acc > majority:
        problems.append(f"{what}: accuracy {acc:.4f} not above majority-label rate {majority:.4f}")
    if not dist[matched].mean() < dist[~matched].mean():
        problems.append(
            f"{what}: matched pairs at mean distance {dist[matched].mean():.4f}, "
            f"mismatched at {dist[~matched].mean():.4f}"
        )
    return problems


def check_synonyms(original_vecs: np.ndarray, alternate_vecs: np.ndarray) -> list[str]:
    """Each synonym command embeds nearest to its own original command."""
    problems = []
    for j, vec in enumerate(alternate_vecs):
        d = np.sqrt(((original_vecs.astype(np.float64) - vec.astype(np.float64)) ** 2).sum(axis=1))
        if int(np.argmin(d)) != j:
            problems.append(f"synonym command {j} embeds nearest to original command {int(np.argmin(d))}")
    return problems


def check_skipgram(losses: list[float]) -> list[str]:
    if not losses or not losses[-1] < losses[0]:
        return [f"skip-gram loss did not fall: {losses[:1]} ... {losses[-1:]}"]
    return []


def check_records(records, bonus: float) -> list[str]:
    """Every training episode's shaped return is its score plus its bonuses."""
    if not records:
        return ["training finished no episode"]
    problems = []
    for r in records:
        want = r.env_score + bonus * r.instr_completions
        if abs(r.shaped_return - want) > TOL:
            problems.append(
                f"episode {r.episode} of worker {r.worker}: shaped return {r.shaped_return} != {want}"
            )
    return problems


def check_eval_row(row: dict, bonus: float, episode_scores: list[float], horizon: int, marine_time: int) -> list[str]:
    """The eval summary agrees with the episodes the environment saw, and no
    episode trains more marines than one barracks can in the horizon."""
    problems = []
    want = row["mean_score"] + bonus * row["mean_completions"]
    if abs(row["mean_shaped"] - want) > TOL * max(1.0, abs(want)):
        problems.append(f"eval mean shaped {row['mean_shaped']} != {want}")
    if len(episode_scores) != row["episodes"]:
        problems.append(f"eval ran {len(episode_scores)} episodes, reported {row['episodes']}")
    elif abs(float(np.mean(episode_scores)) - row["mean_score"]) > TOL:
        problems.append(f"eval mean score {row['mean_score']} != episodes' mean {np.mean(episode_scores)}")
    cap = horizon // marine_time
    if max(episode_scores, default=0) > cap:
        problems.append(f"an eval episode scored {max(episode_scores)} marines, more than {cap}")
    return problems


def check_steps(steps: int, budget: int) -> list[str]:
    return [] if steps >= budget else [f"trained {steps} env steps, budget {budget}"]


def check_same(values: list, what: str) -> list[str]:
    """Repeats of deterministic work give identical results."""
    return [] if all(v == values[0] for v in values) else [f"{what} differs between identical repeats"]
