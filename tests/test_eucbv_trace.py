"""Full-trajectory equivalence against a straight-line transcription.

The reference below re-implements the elimination algorithm from scratch
with plain Python floats and lists (no shared code with the library), feeds
it a scripted reward tape, and records every pull, elimination, and round
reset.  The engine must reproduce the trajectory exactly.
"""

from __future__ import annotations

import math

import numpy as np

from eucbv.policies import EucbvPolicy

# Scripted tape: reward of arm i's j-th pull is TAPE[i][j % len].  Chosen so
# the 64-step trajectory contains three round resets, an elimination (t=39),
# and a commit phase.
TAPE = {
    0: [1, 1, 0, 1, 1, 1, 1, 0, 1, 1],   # mean 0.8
    1: [0, 0, 1, 0, 0, 0, 0, 0, 1, 0],   # mean 0.2
}


def reference_trajectory(n_arms, horizon, rho, psi, tape, radius_eps_power=2):
    """Brute-force transcription: returns (pulls_seq, elim_events,
    advance_events, survivors, final_counts)."""
    m = 0
    active = list(range(n_arms))
    eps = 1.0
    cap = math.floor(0.5 * math.log2(horizon / math.e))

    def quota(e):
        arg = psi * horizon * e * e
        return math.ceil((math.log(arg) if arg > 1.0 else 0.0) / (2.0 * e))

    def radius_log(e):
        arg = psi * horizon * e ** radius_eps_power
        return math.log(arg) if arg > 1.0 else 0.0

    n_m = quota(eps)
    deadline = n_arms * n_m
    counts = [0] * n_arms
    sums = [0.0] * n_arms
    sq_sums = [0.0] * n_arms

    def draw(i):
        r = float(tape[i][counts[i] % len(tape[i])])
        counts[i] += 1
        sums[i] += r
        sq_sums[i] += r * r
        return r

    def mean(i):
        return sums[i] / counts[i]

    def radius(i):
        v = max(0.0, sq_sums[i] / counts[i] - mean(i) ** 2)
        return math.sqrt(rho * (v + 2.0) * radius_log(eps) / (4.0 * counts[i]))

    pulls_seq = []
    elim_events = []
    advance_events = []
    for t in range(1, n_arms + 1):
        draw(t - 1)
        pulls_seq.append(t - 1)
    for t in range(n_arms + 1, horizon + 1):
        if len(active) == 1:
            draw(active[0])
            pulls_seq.append(active[0])
            continue
        best, arm = -math.inf, None
        for j in active:
            index = mean(j) + radius(j)
            if index > best:
                best, arm = index, j
        draw(arm)
        pulls_seq.append(arm)
        threshold = max(mean(j) - radius(j) for j in active)
        removed = [i for i in active if mean(i) + radius(i) < threshold]
        if removed:
            active = [i for i in active if i not in removed]
            elim_events.append((t, tuple(removed)))
        if t >= deadline and m <= cap:
            eps = eps / 2.0
            n_m = quota(eps)
            deadline = t + len(active) * n_m
            m += 1
            advance_events.append((t, m))
    survivor = active[0] if len(active) == 1 else None
    return pulls_seq, elim_events, advance_events, survivor, counts


def engine_trajectory_policy(n_arms, horizon, tape, **kw):
    """Drive EucbvPolicy through the sequential contract on the same tape."""
    policy = EucbvPolicy(1, n_arms, horizon, **kw)
    cursor = [0] * n_arms
    pulls_seq = []
    elim_events = []
    advance_events = []
    prev_active = policy.active[0].copy()
    prev_m = int(policy.m[0])
    for t in range(1, horizon + 1):
        arm = int(policy.select(t)[0])
        reward = float(tape[arm][cursor[arm] % len(tape[arm])])
        cursor[arm] += 1
        policy.update(t, np.array([arm]), np.array([reward]))
        pulls_seq.append(arm)
        now_active = policy.active[0]
        removed = np.nonzero(prev_active & ~now_active)[0]
        if removed.size:
            elim_events.append((t, tuple(int(i) for i in removed)))
        if int(policy.m[0]) != prev_m:
            advance_events.append((t, int(policy.m[0])))
        prev_active = now_active.copy()
        prev_m = int(policy.m[0])
    survivors = policy.survivors()
    survivor = int(survivors[0]) if survivors[0] >= 0 else None
    return (pulls_seq, elim_events, advance_events, survivor,
            policy.pull_counts()[0].tolist())


def test_engine_matches_transcription_exactly():
    n_arms, horizon = 2, 64
    psi = horizon / n_arms ** 2
    ref = reference_trajectory(n_arms, horizon, 0.5, psi, TAPE)
    via_policy = engine_trajectory_policy(n_arms, horizon, TAPE)
    assert via_policy == ref
    # The tape must actually exercise the machinery.
    _, elim_events, advance_events, survivor, counts = ref
    assert elim_events, "tape failed to trigger an elimination"
    assert len(advance_events) >= 2, "tape failed to trigger round resets"
    assert survivor == 0
    assert sum(counts) == horizon


def test_transcription_match_other_shapes():
    tape3 = {
        0: [1, 0, 1, 1, 0, 1, 1, 1],      # mean 0.75
        1: [0, 1, 0, 0, 0, 0, 1, 0],      # mean 0.25
        2: [1, 0, 0, 1, 0, 1, 0, 0],      # mean 0.375
    }
    for horizon in (40, 64):
        psi = horizon / 9
        ref = reference_trajectory(3, horizon, 0.5, psi, tape3)
        assert engine_trajectory_policy(3, horizon, tape3) == ref


def test_listing_literal_radius_variant_also_matches():
    n_arms, horizon = 2, 64
    psi = horizon / n_arms ** 2
    ref = reference_trajectory(n_arms, horizon, 0.5, psi, TAPE, radius_eps_power=1)
    got = engine_trajectory_policy(n_arms, horizon, TAPE, radius_eps_power=1)
    assert got == ref
