"""Heavy-output generation strategies and linear cross-entropy scoring.

A strategy interacts with an oracle handle and outputs a basis string z; its
score on a hidden state psi is 2^n |<z|psi>|^2, so b = 1 is uniform guessing,
b -> 2 is sampling from the state itself, and the collision + amplitude
amplification strategy pushes above 2 with O(2^(n/3)) queries.  Scoring always
uses the exact hidden state; only the strategies are stochastic.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import SCHEMA_VERSION
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    PureState,
    born_sample,
    haar_state_amps,
    trial_rng,
    trial_streams,
)
from .oracles import (
    OracleHandle,
    SignFunction,
    canonical_oracle,
    fourier_coefficients_float,
    fourier_phase_oracle,
    preparation_input,
    random_prep_oracle,
    sample_oracle_output,
)

STRATEGIES = ("uniform", "naive", "k_copy_mode", "collision_amplify", "argmax")
FAMILIES = ("canonical", "random_prep", "fourier")

# checked before run_experiment allocates: 2^25 trials keep the per-trial
# scores array at 256 MiB, and xhog --csv (keep_trials) adds two int32 arrays, z and
# queries, of 128 MiB each (k is capped at linalg.MAX_DIM copies, so both fit int32)
MAX_TRIALS = 2**25


@dataclass(frozen=True)
class StrategyOutcome:
    z: int
    queries_used: int
    auxiliary: dict = field(default_factory=dict)


@dataclass
class XebEstimate:
    strategy_id: str
    family: str
    n: int
    trials: int
    master_seed: int
    b_mean: float
    std_err: float
    total_queries: int
    wall_seconds: float = 0.0
    exact_value: Fraction | None = None
    # per-trial arrays, kept only with keep_trials
    scores: np.ndarray | None = None
    z: np.ndarray | None = None
    queries: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "strategy": self.strategy_id,
            "family": self.family,
            "n": self.n,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "b_mean": self.b_mean,
            "std_err": self.std_err,
            "total_queries": self.total_queries,
            "wall_seconds": self.wall_seconds,
        }
        if self.exact_value is not None:
            out["b_exact"] = f"{self.exact_value.numerator}/{self.exact_value.denominator}"
        return out

    def write_csv(self, path):
        if self.z is None:
            raise ValueError("per-trial rows were not kept")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "z", "score", "queries"])
            w.writerows(zip(range(self.trials), self.z, self.scores, self.queries))


def strategy_uniform(n: int, rng) -> StrategyOutcome:
    return StrategyOutcome(int(rng.integers(2**n)), 0)


def strategy_naive_sample(oracle: OracleHandle, rng) -> StrategyOutcome:
    """Prepare one copy of the hidden state, measure, output the result."""
    before = oracle.calls
    z = sample_oracle_output(oracle, rng)
    return StrategyOutcome(z, oracle.calls - before)


def strategy_k_copy_mode(oracle: OracleHandle, k: int, rng) -> StrategyOutcome:
    """Measure k copies and output the most frequent string (ties: smallest index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    before = oracle.calls
    counts = np.bincount(sample_oracle_output(oracle, rng, k))
    z = int(np.argmax(counts))
    return StrategyOutcome(z, oracle.calls - before, {"counts_max": int(counts.max())})


def posterior_expectation(m: int, n: int, k: int) -> Fraction:
    """Posterior mean of an output probability observed m times in k samples."""
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    return Fraction(1 + m, 2**n + k)


def fixed_grover_iterations(n: int, k: int) -> int:
    """Iteration count targeting the guaranteed good-subspace mass k/2^(n+2)."""
    return math.ceil((math.pi / 4) * math.sqrt(2 ** (n + 2) / k))


def strategy_collision_amplify(oracle: OracleHandle, k: int, rng, schedule="fixed") -> StrategyOutcome:
    """Measure k copies; output a collision, or amplify onto the measured set.

    Without a collision, a fresh copy of the state is rotated towards the span
    of the k measured strings by Grover iterations.  The reflection about the
    measured set is classical data (free); each reflection about the state
    costs 2 oracle queries; every copy costs 1.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if oracle.kind not in ("canonical", "random_prep"):
        raise ValueError(f"oracle kind {oracle.kind!r} lacks a state reflection")
    before = oracle.calls
    seen = set()
    for z in sample_oracle_output(oracle, rng, k).tolist():
        if z in seen:
            return StrategyOutcome(z, oracle.calls - before, {"collision": True})
        seen.add(z)

    good = np.fromiter(sorted(seen), dtype=np.intp)
    start = preparation_input(oracle)  # the flag or |0^n>: reflecting about it is free
    flip_index = oracle.dim - 1 if oracle.kind == "canonical" else 0
    n_dim = oracle.dim - 1 if oracle.kind == "canonical" else oracle.dim
    n = n_dim.bit_length() - 1
    state = oracle.apply(start)

    if schedule == "fixed":
        t_iter = fixed_grover_iterations(n, k)
    elif schedule == "adaptive":
        # idealized mode: reads the true good-subspace mass off the simulator
        a = float(np.sum(np.abs(state[good]) ** 2))
        theta = math.asin(min(1.0, math.sqrt(a)))
        t_iter = max(0, round(math.pi / (4 * theta) - 0.5)) if theta > 0 else 0
    else:
        raise ValueError(f"unknown schedule {schedule!r}")

    for _ in range(t_iter):
        # O (I - 2|start><start|) O^dagger = I - 2|psi><psi|; the canonical oracle is a
        # reflection, so its adjoint query is the same query
        state[good] *= -1.0
        state = oracle.apply_adjoint(state)
        state[flip_index] *= -1.0
        state = oracle.apply(state)
    z = int(born_sample(np.abs(state[:n_dim]) ** 2, rng))
    aux = {"collision": False, "grover_iterations": t_iter, "amplified_hit": z in seen}
    return StrategyOutcome(z, oracle.calls - before, aux)


def strategy_argmax(psi: PureState) -> StrategyOutcome:
    """Reference (not query-legal): the most likely string of the hidden state."""
    z = int(np.argmax(psi.probabilities()))
    return StrategyOutcome(z, 0, {"query_model": False})


def _hidden_instance(family, n, rng):
    """Fresh hidden state, oracle handle, and scoring probabilities for one trial."""
    if family == "fourier":
        f = SignFunction.random(n, rng)
        return fourier_phase_oracle(f, sealed=True), fourier_coefficients_float(f) ** 2, None
    psi_amps = haar_state_amps(2**n, rng)
    psi = PureState(psi_amps)
    if family == "canonical":
        return canonical_oracle(psi, sealed=True), np.abs(psi_amps) ** 2, psi
    if family == "random_prep":
        return random_prep_oracle(psi, rng, sealed=True), np.abs(psi_amps) ** 2, psi
    raise ValueError(f"unknown family {family!r}")


def _run_strategy(strategy, params, oracle, probs, psi, n, rng):
    if strategy == "uniform":
        return strategy_uniform(n, rng)
    if strategy == "naive":
        return strategy_naive_sample(oracle, rng)
    if strategy == "k_copy_mode":
        return strategy_k_copy_mode(oracle, params.get("k", 2), rng)
    if strategy == "collision_amplify":
        return strategy_collision_amplify(
            oracle, params.get("k", 2), rng, params.get("schedule", "fixed")
        )
    if strategy == "argmax":
        if psi is None:
            psi = PureState(np.sqrt(probs).astype(complex))
        return strategy_argmax(psi)
    raise ValueError(f"unknown strategy {strategy!r}")


def run_experiment(
    strategy,
    family,
    n,
    trials,
    master_seed,
    strategy_params=None,
    exact=False,
    keep_trials=False,
) -> XebEstimate:
    """Per-trial fresh hidden instance, strategy run, exact scoring, aggregation.

    Trial i draws from the stream ``trial_rng(master_seed, i)``, derived a
    block at a time by ``trial_streams``, so results are bit-identical
    regardless of execution order and any trial can be replayed alone.  In
    exact mode (fourier family, naive strategy) the score is the full average
    over every sign function.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    params = strategy_params or {}
    k = params.get("k", 2)
    if strategy in ("k_copy_mode", "collision_amplify") and k > MAX_DIM:
        raise ValueError(f"k = {k} is over the cap of {MAX_DIM} copies")
    t0 = time.perf_counter()

    if exact:
        if family != "fourier" or strategy != "naive":
            raise ValueError("exact mode is only defined for the naive fourier run")
        from .fourier_lp import naive_fourier_value

        b = naive_fourier_value(n)
        n_funcs = 2 ** (2**n)
        return XebEstimate(
            strategy, family, n, n_funcs, master_seed, float(b), 0.0, n_funcs,
            time.perf_counter() - t0, exact_value=b,
        )

    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials = {trials} outside [1, {MAX_TRIALS}] (2^25, a 256 MiB score array)")
    scores = np.empty(trials)
    total_queries = 0
    zs = np.empty(trials, dtype=np.int32) if keep_trials else None
    queries = np.empty(trials, dtype=np.int32) if keep_trials else None
    n_dim = 2**n
    for i, rng in enumerate(trial_streams(master_seed, 0, trials)):
        oracle, probs, psi = _hidden_instance(family, n, rng)
        outcome = _run_strategy(strategy, params, oracle, probs, psi, n, rng)
        scores[i] = n_dim * probs[outcome.z]
        total_queries += outcome.queries_used
        if keep_trials:
            zs[i], queries[i] = outcome.z, outcome.queries_used
    std_err = float(scores.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return XebEstimate(
        strategy, family, n, trials, master_seed, float(scores.mean()), std_err,
        total_queries, time.perf_counter() - t0,
        scores=scores if keep_trials else None, z=zs, queries=queries,
    )


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo helpers for the closed-form checks


def _sample_rows(probs, rng):
    """One categorical sample per row of a probability matrix."""
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(probs.shape[0])
    return (cum < u[:, None]).sum(axis=1)


def _exponential_chunks(n_dim, trials, rng, chunk):
    """Raw i.i.d. Exp(1) rows, at most ``chunk`` per block, ``trials`` in all.

    A row divided by its sum is a uniform point of the probability simplex,
    i.e. the output distribution of a Haar-random state.  Every block is a
    view of one reused buffer, filled with the same draws as
    ``rng.exponential(size=(m, n_dim))``, so a yielded block is valid only
    until the next one: callers normalize it in place and copy what they keep.
    """
    buf = np.empty((min(chunk, trials), n_dim))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        e = buf[:m]
        rng.standard_exponential(out=e)
        yield e
        done += m


def collision_rate_mc(n, trials, seed, chunk=100_000):
    """Empirical per-string collision rate of two measurements of a Haar state.

    Pr[z1 = z2 = z] is the same for every z by symmetry, so it is estimated as
    Pr[z1 = z2]/N.  Returns (rate, std_err); the exact value is 2/(N(N+1)),
    i.e. E[p_z^2].
    """
    rng = trial_rng(seed, 0)
    n_dim = 2**n
    hits = 0
    for probs in _exponential_chunks(n_dim, trials, rng, chunk):
        probs /= probs.sum(axis=1, keepdims=True)
        hits += int(np.sum(_sample_rows(probs, rng) == _sample_rows(probs, rng)))
    rate = hits / trials
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return rate / n_dim, se / n_dim


def posterior_mc(n, k, m, trials, seed, chunk=100_000):
    """Conditional mean of p_0 given string 0 appears m times in k measurements.

    Returns (mean, std_err, conditioning_count); the exact value is the
    posterior expectation (1+m)/(2^n+k).
    """
    rng = trial_rng(seed, 0)
    vals = []
    for probs in _exponential_chunks(2**n, trials, rng, chunk):
        probs /= probs.sum(axis=1, keepdims=True)
        counts = np.zeros(len(probs), dtype=np.int64)
        for _ in range(k):
            counts += _sample_rows(probs, rng) == 0
        vals.append(probs[counts == m, 0])
    vals = np.concatenate(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals))), len(vals)


def chernoff_mass_rate(n, k, trials, seed, chunk=50_000):
    """Empirical rate of the measured-mass event sum_i p_(z_i) >= k/2^(n+2)."""
    rng = trial_rng(seed, 0)
    threshold = k / 2 ** (n + 2)
    hits = 0
    for probs in _exponential_chunks(2**n, trials, rng, chunk):
        probs /= probs.sum(axis=1, keepdims=True)
        mass = np.zeros(len(probs))
        for _ in range(k):
            mass += np.take_along_axis(probs, _sample_rows(probs, rng)[:, None], 1)[:, 0]
        hits += int(np.sum(mass >= threshold))
    return hits / trials


def max_xeb_mc(n_dim, trials, seed, chunk=2048):
    """Monte Carlo (mean, std_err) of max_z p_z over Haar states; exact is H_N/N.

    Nothing is drawn between chunks, so ``chunk`` sets only the buffer size
    (4 MiB at N = 256), not the result.  The other helpers draw uniforms
    between chunks, so their ``chunk`` is part of the seeded output.
    """
    rng = trial_rng(seed, 0)
    maxima = np.concatenate([
        e.max(axis=1) / e.sum(axis=1) for e in _exponential_chunks(n_dim, trials, rng, chunk)
    ])
    return float(maxima.mean()), float(maxima.std(ddof=1) / math.sqrt(trials))
