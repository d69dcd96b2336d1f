"""Span tracer that wraps the solver's names from outside the package.

Each wrapper replaces one attribute that a caller looks up at call time (a
module global such as ``dynamics.consensus_points`` or a class attribute such
as ``ObjectiveFunction.pair_matrix``) and records a span: name, start, end and
the span that was open when it started.  Spans live in flat arrays in memory
and are written out when the run ends.  A name the package no longer has is
recorded as an absent layer and skipped, so the tracer keeps working when a
later version of the package removes or renames one of these names.

Counters are kept at the same boundaries.  Statistics that cost real time
(the exponential-weight zero share and effective sample size) run in their
own ``trace.hook`` span, so their cost is charged to the tracer and not to
the layer that called the traced function.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Span name -> layer.  A layer's self time is the sum of the self times of
# its spans; batch calls made from inside pair_matrix belong to pair_matrix.
LAYERS = {
    "cli.main": "cli",
    "harness.timed_run_benchmark": "harness",
    "harness.run_sweep": "harness",
    "harness.write_run_csv": "emit",
    "harness.write_run_summary": "emit",
    "harness.write_sweep_csv": "emit",
    "dynamics.run": "dynamics",
    "dynamics._rng": "rng",
    "dynamics.SeedSequence": "rng",
    "dynamics.default_rng": "rng",
    "dynamics.clamp": "clamp",
    "consensus.consensus_points": "consensus",
    "consensus.exp_weights": "exp_weights",
    "objectives.pair_matrix": "pair_matrix",
    "objectives.batch": "outer_batch",
    "diagnostics._record_state": "record",
    "diagnostics.variance": "record",
    "diagnostics.spread": "record",
    "diagnostics.best_pair_from_matrix": "record",
    "diagnostics.error_to_reference": "record",
    "trace.hook": "trace",
}


class Tracer:
    """Records spans around wrapped callables; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []
        self.absent: list[str] = []
        self.counts = {"pair_evals": 0, "outer_evals": 0, "rng_builds": 0,
                       "exp_entries": 0, "exp_zeros": 0, "exp_bytes": 0}
        self.exp_span = array("q")
        self.exp_zeros = array("q")
        self.exp_size = array("q")
        self.ess_x: list[np.ndarray] = []
        self.ess_y: list[np.ndarray] = []
        self._hook_id = self._id("trace.hook")

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """fn wrapped in a span; hook(span_index, args, kwargs, result) runs after it closes."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(idx, args, kwargs, out)
            return out

        return traced

    # --- counting hooks -------------------------------------------------

    def _count_pairs(self, idx, args, kwargs, out) -> None:
        self.counts["pair_evals"] += np.size(out)

    def _count_batch(self, idx, args, kwargs, out) -> None:
        parent = self.parent[idx]
        if parent < 0 or self.names[self.name_id[parent]] != "objectives.pair_matrix":
            self.counts["outer_evals"] += np.size(out)

    def _count_rng(self, idx, args, kwargs, out) -> None:
        self.counts["rng_builds"] += 1

    def _exp_stats(self, idx, args, kwargs, out) -> None:
        # exp_weights(values, scale, axis=-1): a negative scale is the
        # soft-argmin over x, a nonnegative one the soft-argmax over y.
        hidx = self._open(self._hook_id)
        try:
            scale, w = args[1], np.asarray(out)
            zeros = int(np.count_nonzero(w == 0.0))
            self.counts["exp_entries"] += w.size
            self.counts["exp_zeros"] += zeros
            self.counts["exp_bytes"] += 16 * w.size  # read the input, write the output
            self.exp_span.append(idx)
            self.exp_zeros.append(zeros)
            self.exp_size.append(w.size)
            axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
            ess = 1.0 / np.sum(w * w, axis=axis)
            (self.ess_x if scale < 0 else self.ess_y).append(np.atleast_1d(ess))
        finally:
            self._close(hidx)

    # --- patching -------------------------------------------------------

    def install(self, cli, harness, dynamics, consensus, objectives) -> None:
        objective_cls = getattr(objectives, "ObjectiveFunction", None)
        targets = [
            (cli, "timed_run_benchmark", "harness.timed_run_benchmark", None),
            (cli, "run_sweep", "harness.run_sweep", None),
            (cli, "write_run_csv", "harness.write_run_csv", None),
            (cli, "write_run_summary", "harness.write_run_summary", None),
            (cli, "write_sweep_csv", "harness.write_sweep_csv", None),
            (harness, "run", "dynamics.run", None),
            (dynamics, "consensus_points", "consensus.consensus_points", None),
            (dynamics, "_rng", "dynamics._rng", None),
            (dynamics, "SeedSequence", "dynamics.SeedSequence", None),
            (dynamics, "default_rng", "dynamics.default_rng", self._count_rng),
            (dynamics, "_record_state", "diagnostics._record_state", None),
            (dynamics, "variance", "diagnostics.variance", None),
            (dynamics, "spread", "diagnostics.spread", None),
            (dynamics, "best_pair_from_matrix", "diagnostics.best_pair_from_matrix", None),
            (dynamics, "error_to_reference", "diagnostics.error_to_reference", None),
            (getattr(objectives, "BoxDomain", None), "clamp", "dynamics.clamp", None),
            (objective_cls, "pair_matrix", "objectives.pair_matrix", self._count_pairs),
            (objective_cls, "batch", "objectives.batch", self._count_batch),
            (consensus, "exp_weights", "consensus.exp_weights", self._exp_stats),
        ]
        self.absent = []
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            self._patches.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # --- analysis -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def analyse(self) -> dict:
        """Self and inclusive time per span name and per layer, plus step phases."""
        a = self.arrays()
        name_id, parent = a["name_id"], a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        has_parent = parent >= 0
        self_ns = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        layers = sorted({LAYERS.get(s, s) for s in self.names} | {"pair_matrix"})
        layer = np.array([layers.index(LAYERS.get(s, s)) for s in self.names], dtype=np.int64)[name_id]
        if "objectives.batch" in self._ids:
            in_pair = (name_id == self._ids["objectives.batch"]) & has_parent
            in_pair[in_pair] = self._ids.get("objectives.pair_matrix", -1) == name_id[parent[in_pair]]
            layer[in_pair] = layers.index("pair_matrix")
        by_layer = np.bincount(layer, weights=self_ns, minlength=len(layers))
        by_name_self = np.bincount(name_id, weights=self_ns, minlength=len(self.names))
        by_name_incl = np.bincount(name_id, weights=dur, minlength=len(self.names))
        return {
            "self_ns_by_layer": dict(zip(layers, by_layer.tolist())),
            "self_ns_by_name": dict(zip(self.names, by_name_self.tolist())),
            "incl_ns_by_name": dict(zip(self.names, by_name_incl.tolist())),
            "root_ns": float(dur[~has_parent].sum()),
            "phases": self._phases(name_id, parent, a["start_ns"], dur),
        }

    def _phases(self, name_id, parent, start, dur) -> dict:
        """Per-step split of every traced run: its first 10 steps and quarters q1..q4 of its steps.

        A step is the interval between consecutive consensus_points calls of
        one run, less the tracer's hook time inside it; its exp_weights time
        and zero share come from the exp_weights calls made by the step's
        consensus_points call.
        """
        cp_id = self._ids.get("consensus.consensus_points")
        exp_id = self._ids.get("consensus.exp_weights")
        if cp_id is None or exp_id is None:
            return {}
        n = dur.size
        cp = np.flatnonzero(name_id == cp_id)
        exp = np.flatnonzero(name_id == exp_id)
        hooks = np.flatnonzero(name_id == self._hook_id)
        stats_at = np.frombuffer(self.exp_span, dtype=np.int64)

        def per_cp(spans, weights):
            return np.bincount(parent[spans], weights=weights, minlength=n)[cp]

        exp_ns = per_cp(exp, dur[exp])
        zeros = per_cp(stats_at, np.frombuffer(self.exp_zeros, dtype=np.int64).astype(float))
        entries = per_cp(stats_at, np.frombuffer(self.exp_size, dtype=np.int64).astype(float))
        # Span indices follow start order, so a hook belongs to the last
        # consensus_points call that started before it.
        step_of_hook = np.searchsorted(cp, hooks, side="right") - 1
        keep = step_of_hook >= 0
        hook_ns = np.bincount(step_of_hook[keep], weights=dur[hooks][keep], minlength=cp.size)
        totals = {name: np.zeros(5) for name in ("first10", "q1", "q2", "q3", "q4")}
        run_of = parent[cp]
        for run in np.unique(run_of):
            k = np.flatnonzero(run_of == run)
            step_ns = np.diff(start[cp[k]]) - hook_ns[k[:-1]]
            index = np.arange(step_ns.size)
            quarter_of = 4 * index // max(step_ns.size, 1)
            selections = [index < 10] + [quarter_of == i for i in range(4)]
            for sel, t in zip(selections, totals.values()):
                steps = k[:-1][sel]
                t += [sel.sum(), step_ns[sel].sum(), exp_ns[steps].sum(), zeros[steps].sum(), entries[steps].sum()]
        return {
            phase: {"steps": int(t[0]), "step_ms": t[1] / t[0] / 1e6,
                    "exp_weights_share": t[2] / t[1], "exp_zero_frac": t[3] / t[4]}
            for phase, t in totals.items() if t[0] and t[4]
        }
