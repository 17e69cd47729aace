"""In-memory span tracer that wraps the public functions of xhoglab's modules.

Spans are recorded by the benchmark around calls into the program, never inside
it.  A wrapper replaces the function under every name that binds it in any
xhoglab module (``xhog`` binds ``trial_rng`` at import, ``uprep`` binds
``haar_unitary_mat``, ...), so no call path escapes the trace.  Each span adds
one call and its self time (duration minus the time covered by child spans) to
a per-name aggregate; per-call counters ride along in the same wrappers.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter, defaultdict

MODULES = ("linalg", "oracles", "symmetrize", "uprep", "xhog", "fourier_lp", "cli")

# OracleHandle.kind -> structure of the applied unitary
APPLY_SPLIT = {"canonical": "rank1", "reflection": "rank1", "fourier_phase": "diag", "random_prep": "dense"}


class Tracer:
    """Aggregated spans and counters for one traced stretch of jobs."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.ledger_violations = 0
        self._stack = []
        self._patches = []

    def span(self, name, fn, after=None):
        """Wrap ``fn``; ``name`` may be a callable of the call's arguments."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name(args) if callable(name) else name
            frame = [0.0, key]  # time covered by child spans, span name
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                calls[key] += 1
                self_s[key] += dt - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def parent(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def wrap_function(self, xhoglab_modules, module, attr, name=None, after=None):
        """Wrap ``module.attr`` under every name that binds it in any xhoglab module."""
        orig = getattr(xhoglab_modules[module], attr)
        wrapped = self.span(name or f"{module}.{attr}", orig, after)
        for mod in xhoglab_modules.values():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def wrap_method(self, cls, attr, name, after=None):
        orig = cls.__dict__[attr]
        self._patches.append((cls, attr, orig))
        setattr(cls, attr, self.span(name, orig, after))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced public function of linalg, oracles, symmetrize, uprep, xhog,
    fourier_lp and cli.  Returns the tracer; call ``tracer.uninstall()`` to undo."""
    import importlib

    mods = {m: importlib.import_module(f"xhoglab.{m}") for m in MODULES}
    linalg, oracles, xhog = mods["linalg"], mods["oracles"], mods["xhog"]
    counts = tracer.counts
    wrap = tracer.wrap_function

    def haar_flops(args, kwargs, result):
        # complex Householder QR plus explicit Q: 4 * (4/3 + 4/3) d^3 real flops
        d = _bound(linalg.haar_unitary_mat, args, kwargs)["dim"]
        counts["linalg.haar_unitary_mat.flop_computed"] += (32 * d**3) // 3

    for attr in ("trial_rng", "haar_state_amps", "born_sample", "distance_to_eigenvalue_hull",
                 "unitary_channel_diamond_distance"):
        wrap(mods, "linalg", attr)
    wrap(mods, "linalg", "haar_unitary_mat", after=haar_flops)
    tracer.wrap_method(linalg.UnitaryOp, "__init__", "linalg.UnitaryOp")
    tracer.wrap_method(linalg.DensityMatrix, "__init__", "linalg.DensityMatrix")

    def query(args, kwargs, result):
        counts["oracles.queries"] += 1

    def apply_name(args):
        return f"oracles.apply.{APPLY_SPLIT[args[0].kind]}"

    for attr in ("apply", "apply_adjoint"):
        tracer.wrap_method(oracles.OracleHandle, attr, apply_name, after=query)
    tracer.wrap_method(oracles.OracleHandle, "apply_controlled", apply_name, after=query)
    for attr in ("canonical_oracle", "fourier_phase_oracle", "random_prep_oracle",
                 "sample_oracle_output", "fwht"):
        wrap(mods, "oracles", attr)

    wrap(mods, "xhog", "run_experiment")
    wrap(mods, "xhog", "strategy_naive_sample")
    wrap(mods, "xhog", "strategy_k_copy_mode")

    def amplify(args, kwargs, result):
        a = _bound(xhog.strategy_collision_amplify, args, kwargs)
        oracle, k = a["oracle"], a["k"]
        n = (oracle.dim - 1 if oracle.kind == "canonical" else oracle.dim).bit_length() - 1
        limit = k + 1 + 2 * xhog.fixed_grover_iterations(n, k)
        if not k <= result.queries_used <= limit:
            tracer.ledger_violations += 1
        if result.auxiliary.get("collision"):
            counts["xhog.collision_amplify.collisions"] += 1
        else:
            counts["xhog.collision_amplify.amplified"] += 1
            counts["xhog.collision_amplify.amplified_hits"] += int(result.auxiliary["amplified_hit"])
            counts["xhog.collision_amplify.grover_iterations"] += result.auxiliary["grover_iterations"]

    wrap(mods, "xhog", "strategy_collision_amplify", after=amplify)

    def mc_rows(fn):
        def after(args, kwargs, result):
            a = _bound(fn, args, kwargs)
            n_dim = a["n_dim"] if "n_dim" in a else 2 ** a["n"]
            counts["xhog.mc_rows"] += a["trials"]
            chunk_bytes = min(a["chunk"], a["trials"]) * n_dim * 8
            key = "xhog.mc_chunk_bytes_computed"
            counts[key] = max(counts[key], chunk_bytes)
        return after

    for attr in ("max_xeb_mc", "collision_rate_mc", "posterior_mc"):
        wrap(mods, "xhog", attr, after=mc_rows(getattr(xhog, attr)))

    for attr in ("channel_distance_bound_report", "t_composed_diamond", "draw_plan", "rotation_R"):
        wrap(mods, "uprep", attr)

    def helper_draw(args, kwargs, result):
        # draws of a helper state; over draw_plan calls, 1 + the degenerate-resample rate
        if tracer.parent() == "uprep.draw_plan":
            counts["uprep.decompose_phi.calls"] += 1

    wrap(mods, "uprep", "decompose_phi", after=helper_draw)

    def dense_bytes(args, kwargs, result):
        counts["symmetrize.dense_bytes_computed"] += result.mat.nbytes

    wrap(mods, "symmetrize", "sigma_R_exact", after=dense_bytes)
    wrap(mods, "symmetrize", "rho_R_protocol_exact", after=dense_bytes)
    wrap(mods, "symmetrize", "build_R")

    def constraints(args, kwargs, result):
        # nonnegativity, the empty-set equality, and one per 2-element subset
        counts["fourier_lp.constraints_checked"] += 2 + math.comb(2 ** args[0].n, 2)

    for attr in ("naive_fourier_value", "build_primal", "solve_primal_numeric"):
        wrap(mods, "fourier_lp", attr)
    wrap(mods, "fourier_lp", "verify_dual_feasibility", after=constraints)

    wrap(mods, "cli", "main")
    return tracer
