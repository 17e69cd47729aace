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
    MAX_TRIALS,
    _seed,
    born_sample,
    haar_state_amps,
    trial_rng,
    trial_streams,
)
from .oracles import (
    OracleHandle,
    canonical_oracle,
    fourier_coefficients_float,
    fourier_phase_oracle,
    preparation_input,
    random_prep_oracle,
    reflect_about_state,
    sample_oracle_output,
)

STRATEGIES = ("uniform", "naive", "k_copy_mode", "collision_amplify")
FAMILIES = ("canonical", "random_prep", "fourier")
# amplitude entries per block of trials, which takes TRIAL_BLOCK_ENTRIES // max(N, k) trials
# (at least one): a block holds a few arrays of that many entries (draws, states, query
# outputs, CDFs, copy uniforms), 16 trials at n = 8; 2^15 entries raised the benchmark's
# mc_trials peak RSS by ~8 % for no further gain
TRIAL_BLOCK_ENTRIES = 2**12


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
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["trial", "z", "score", "queries"])
            w.writerows(zip(range(self.trials), self.z, self.scores, self.queries))


def strategy_naive_sample(oracles, u) -> np.ndarray:
    """Prepare one copy of each hidden state, measure, output the result.

    It is ``strategy_k_copy_mode`` with one copy: ``u`` is one uniform per
    handle, and the same uniform gives the same z.
    """
    return strategy_k_copy_mode(oracles, u)


def strategy_k_copy_mode(oracles, u) -> np.ndarray:
    """Measure k copies of each hidden state and output the most frequent string
    (ties: smallest index); row j of ``u`` holds handle j's k uniforms.

    Every row's counts come from one bincount of row-offset indices, so a block
    holds O(rows (N + k)) entries whatever k is.
    """
    zs = sample_oracle_output(oracles, u)
    rows, width = zs.shape[0], oracles[0].dim
    counts = np.bincount((zs + width * np.arange(rows)[:, None]).ravel(), minlength=rows * width)
    return counts.reshape(rows, width).argmax(axis=1)


def fixed_grover_iterations(n: int, k: int) -> int:
    """Iteration count targeting the guaranteed good-subspace mass k/2^(n+2)."""
    return math.ceil((math.pi / 4) * math.sqrt(2 ** (n + 2) / k))


def strategy_collision_amplify(oracle: OracleHandle, k: int, rng) -> StrategyOutcome:
    """Measure k copies; output a collision, or amplify onto the measured set.

    Without a collision, a fresh copy of the state is rotated towards the span
    of the k measured strings by Grover iterations.  The reflection about the
    measured set is classical data (free); each reflection about the state
    costs 2 oracle queries; every copy costs 1.  ``run_experiment`` admits only
    k >= 2 and the two families with a state reflection.
    """
    before = oracle.calls
    seen = set()
    for z in sample_oracle_output([oracle], rng.random((1, k)))[0].tolist():
        if z in seen:
            return StrategyOutcome(z, oracle.calls - before, {"collision": True})
        seen.add(z)

    good = np.fromiter(sorted(seen), dtype=np.intp)
    n = oracle.dim.bit_length() - 1  # the canonical flag's extra dimension stays below 2^(n+1)
    state = oracle.apply(preparation_input(oracle))
    t_iter = fixed_grover_iterations(n, k)
    for _ in range(t_iter):
        state[good] *= -1.0
        state = reflect_about_state(oracle, state)
    z = int(born_sample(np.abs(state[None, : 2**n]) ** 2, rng.random((1, 1)))[0, 0])
    aux = {"collision": False, "grover_iterations": t_iter, "amplified_hit": z in seen}
    return StrategyOutcome(z, oracle.calls - before, aux)


def _hidden_instances(family, draws, rng):
    """Fresh oracles over hidden states, and their scoring probabilities, for rows of draws.

    A fourier row is the sign table 1 - 2 bits.  ``rng`` serves the random-prep
    handles' lazy complements; with None, a query needing a fresh direction raises.
    """
    if family == "fourier":
        tables = 1 - 2 * draws  # f(x) = table[x], a uniform sign table
        return [fourier_phase_oracle(t) for t in tables], fourier_coefficients_float(tables) ** 2
    psi = haar_state_amps(draws)
    if family == "canonical":
        return [canonical_oracle(p) for p in psi], np.abs(psi) ** 2
    return [random_prep_oracle(p, rng) for p in psi], np.abs(psi) ** 2


class _BlockStream:
    """A one-trial block's stream, lent to its random-prep handles until the block ends.

    ``trial_streams`` reseeds one shared Generator for each trial, so a handle
    queried after its block would draw from a later trial's stream; once
    ``rng`` is None, such a query raises instead.
    """

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, size):
        if self.rng is None:
            raise ValueError("a random-prep handle was queried after its trial block ended")
        return self.rng.standard_normal(size)


def _trial_blocks(strategy, family, n_dim, k, trials, streams):
    """Every strategy's trials, one per block for ``collision_amplify`` and
    ``TRIAL_BLOCK_ENTRIES // max(N, copies)`` (at least one) for the others.

    A Python pass per trial only draws, in the stream order of a trial run
    alone: the instance, then the copies' uniforms or uniform's string.  The
    states, Born draws and strategy then run once per block, and every query
    is still one ``apply`` on that instance's own handle.  A block of one
    trial keeps its stream, so its random-prep handles draw fresh directions
    from it until the block ends (``collision_amplify`` runs in such blocks
    and draws its own uniforms); a longer block's handles get none, since its
    streams are gone.
    """
    copies = {"naive": 1, "k_copy_mode": k}.get(strategy, 0)
    size = 1 if strategy == "collision_amplify" else max(1, TRIAL_BLOCK_ENTRIES // max(n_dim, copies))
    width, dtype = (n_dim, np.int64) if family == "fourier" else (2 * n_dim, float)
    draws = np.empty((min(size, trials), width), dtype)
    u = np.empty((len(draws), copies))
    picks = np.empty(len(draws), dtype=np.intp)
    for lo in range(0, trials, len(draws)):
        rows = min(len(draws), trials - lo)
        for j, rng in zip(range(rows), streams):
            if family == "fourier":
                draws[j] = rng.integers(0, 2, size=n_dim)
            else:
                rng.standard_normal(out=draws[j])
            if strategy == "uniform":
                picks[j] = rng.integers(n_dim)
            elif copies:
                rng.random(out=u[j])
        lent = _BlockStream(rng) if rows == 1 else None
        oracles, probs = _hidden_instances(family, draws[:rows], lent)
        if strategy == "uniform":
            z = picks[:rows]
        elif strategy == "collision_amplify":
            z = [strategy_collision_amplify(oracles[0], k, rng).z]
        elif strategy == "naive":
            z = strategy_naive_sample(oracles, u[:rows])
        else:
            z = strategy_k_copy_mode(oracles, u[:rows])
        try:
            yield z, probs, oracles
        finally:
            if lent:
                lent.rng = None


def run_experiment(
    strategy,
    family,
    n,
    trials,
    master_seed,
    k=2,
    exact=False,
    keep_trials=False,
) -> XebEstimate:
    """Per-trial fresh hidden instance, strategy run, exact scoring, aggregation.

    ``k`` is the copy count of ``k_copy_mode`` and ``collision_amplify``; the
    other strategies ignore it.  Trial i draws from the stream
    ``trial_rng(master_seed, i)``, derived a block at a time by
    ``trial_streams``, so results are bit-identical regardless of execution
    order and any trial can be replayed alone.
    Every strategy runs in ``_trial_blocks``: ``collision_amplify`` one trial
    per block, the others ``TRIAL_BLOCK_ENTRIES // max(N, k)`` trials per
    block (at least one), drawing each trial's numbers from its stream and
    then normalizing, Born-sampling and scoring the block at once, with the
    values trial by trial would give.  Every instance keeps its own handle,
    so each query is one ``apply`` call.  In exact mode (fourier family,
    naive strategy) the score is the full average over every sign function.  Every rule on the
    inputs is checked here, before anything is allocated; the strategies and
    dispatch below assume them.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"xhog needs 1 <= -n <= {MAX_QUBITS}, got -n {n}")
    if strategy in ("k_copy_mode", "collision_amplify"):
        k_min = 1 if strategy == "k_copy_mode" else 2
        if not k_min <= k <= MAX_DIM:
            raise ValueError(f"{strategy} needs {k_min} <= -k <= {MAX_DIM} copies, got -k {k}")
    if strategy == "collision_amplify" and family == "fourier":
        raise ValueError("collision_amplify needs a state reflection, which --family fourier lacks")
    t0 = time.perf_counter()

    if exact:
        if family != "fourier" or strategy != "naive":
            raise ValueError("--exact is only defined for --strategy naive --family fourier")
        from .fourier_lp import ENUM_CAP, naive_fourier_value

        if n > ENUM_CAP:
            raise ValueError(f"--exact enumerates every sign table, so it needs -n <= {ENUM_CAP}")
        _seed(master_seed)  # a negative seed is a usage error here too

        b = naive_fourier_value(n)
        n_funcs = 2 ** (2**n)
        return XebEstimate(
            strategy, family, n, n_funcs, master_seed, float(b), 0.0, n_funcs,
            time.perf_counter() - t0, exact_value=b,
        )

    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"xhog needs 1 <= --trials <= {MAX_TRIALS} (2^25, a 256 MiB score array),"
                         f" got --trials {trials}")
    streams = trial_streams(master_seed, 0, trials)  # rejects a negative seed here
    scores = np.empty(trials)
    total_queries = 0
    zs = np.empty(trials, dtype=np.int32) if keep_trials else None
    queries = np.empty(trials, dtype=np.int32) if keep_trials else None
    n_dim = 2**n
    lo = 0
    for z, probs, oracles in _trial_blocks(strategy, family, n_dim, k, trials, streams):
        hi = lo + len(z)
        scores[lo:hi] = n_dim * probs[np.arange(len(z)), z]
        # the fresh handles' counts, not a strategy's report
        calls = [oracle.calls for oracle in oracles]
        total_queries += sum(calls)
        if keep_trials:
            zs[lo:hi], queries[lo:hi] = z, calls
        lo = hi
    std_err = float(scores.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return XebEstimate(
        strategy, family, n, trials, master_seed, float(scores.mean()), std_err,
        total_queries, time.perf_counter() - t0,
        scores=scores if keep_trials else None, z=zs, queries=queries,
    )


# ---------------------------------------------------------------------------
# Vectorized Monte Carlo helpers for the closed-form checks


def _row_cdf(probs):
    """Overwrite each row of a probability matrix with its CDF; returns it.

    The last entry is pinned to 1, so rounding in the sums cannot leave a
    uniform above every entry.
    """
    cdf = np.cumsum(probs, axis=1, out=probs)
    cdf[:, -1] = 1.0
    return cdf


def _draw_rows(cdf, u):
    """One categorical index per row of a CDF matrix: the count of entries below u.

    That count is the index of the first entry not below u, the ``argmin`` of
    the comparison, which numpy finds faster than it sums the row: the pinned
    last entry 1 is above every uniform, and the entries below u are a prefix
    of the row, since the cumsum never decreases and an entry it rounds above
    1 is not below u either.
    """
    return (cdf < u[:, None]).argmin(axis=1)


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
        cdf = _row_cdf(probs)
        # the same uniforms as two rng.random(m) calls, one per measurement
        u = rng.random((2, len(cdf)))
        hits += int(np.sum(_draw_rows(cdf, u[0]) == _draw_rows(cdf, u[1])))
    rate = hits / trials
    se = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
    return rate / n_dim, se / n_dim


def posterior_mc(n, k, m, trials, seed, chunk=100_000):
    """Conditional mean of p_0 given string 0 appears m times in k measurements.

    Returns (mean, std_err, conditioning_count); the exact value is the
    posterior expectation (1+m)/(2^n+k).  Raises ValueError unless 0 <= m <= k
    and two or more rows meet the condition (none does for m < k at N = 1)."""
    if not 0 <= m <= k:
        raise ValueError("need 0 <= m <= k")
    rng = trial_rng(seed, 0)
    vals = []
    for e in _exponential_chunks(2**n, trials, rng, chunk):
        # a measurement gives string 0 exactly when its uniform is <= cdf[0] = p_0
        # (for N = 1 the pinned cdf[0] = 1 = p_0 as well), so no CDF is built, and
        # only p_0 is normalized, by the same division as the whole row's
        p0 = e[:, 0] / e.sum(axis=1)
        counts = (rng.random((k, len(p0))) <= p0).sum(axis=0)
        vals.append(p0[counts == m])
    vals = np.concatenate(vals)
    if len(vals) < 2:
        raise ValueError(f"{len(vals)} of {trials} rows see string 0 exactly {m} times")
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals))), len(vals)


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
