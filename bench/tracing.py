"""Span tracing around the public functions of each qotsim layer.

A Tracer replaces module and class attributes with timing wrappers while it
is entered, and puts the originals back when it exits. Every call site
inside the package looks these names up through the module or class, so
every call site reaches the wrapper. Each span records its name, start,
end, parent span and op id in columnar arrays that stay in memory until
the caller saves them. Self time (span time minus the wrapped child spans
inside it) and per-layer counts are accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Every wrapped callable, as (module, attribute path). The span name is
# "<module>.<attribute path>", for example "protocol.Reception.measure".
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("gf2", "min_distance"),
    ("gf2", "solve_affine"),
    ("gf2", "unpack_int"),
    ("protocol", "run_string_qot"),
    ("protocol", "run_qkd"),
    ("protocol", "transmit"),
    ("protocol", "Reception.measure"),
    ("protocol", "bob_decode"),
    ("protocol", "Transcript.to_json"),
    ("quantum", "angle_basis"),
    ("quantum", "measure_photon"),
    ("quantum", "bb84_state"),
    ("quantum", "density_from_ensemble"),
    ("quantum", "density_in_frame"),
    ("quantum", "ball_projector"),
    ("quantum", "small_distance_defect"),
    ("cosetrho", "lemma1_certificate"),
    ("cosetrho", "rho_brute"),
    ("cosetrho", "rho_closed_form"),
    ("attacks", "information_account"),
    ("attacks", "view_small_distance_defect"),
    ("attacks", "apply_strategy"),
    ("attacks", "finish_deferred"),
    ("attacks", "eve_intercept"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)

# Per-layer metrics of the traced run, as (name, unit). A comment names the
# workload, and where it matters the end-to-end metric, that each one should
# move.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("gf2.min_distance.calls", "count"),           # codes ops_per_s
    ("gf2.min_distance.self_s", "s"),
    ("gf2.min_distance.span_words", "count"),      # sum of 2^rows
    ("gf2.solve_affine.self_s", "s"),              # codes, certify
    ("gf2.unpack_int.calls", "count"),             # attack ops_per_s
    ("gf2.unpack_int.self_s", "s"),
    ("protocol.Reception.measure.calls", "count"), # transfer op_p50_ms
    ("protocol.Reception.measure.self_s", "s"),
    ("protocol.bob_decode.calls", "count"),        # codes
    ("protocol.bob_decode.self_s", "s"),
    ("protocol.bob_decode.coset_words", "count"),  # sum of 2^dim
    ("protocol.transmit.self_s", "s"),             # transfer
    ("protocol.Transcript.to_json.self_s", "s"),   # transfer
    ("protocol.runs", "count"),
    ("protocol.aborts.TEST_FAILED", "count"),
    ("protocol.aborts.SET_SHORTAGE", "count"),
    ("protocol.completed_share", "ratio"),         # runs reaching correction / runs
    ("quantum.angle_basis.calls", "count"),        # transfer
    ("quantum.angle_basis.self_s", "s"),
    ("quantum.measure_photon.calls", "count"),     # attack
    ("quantum.measure_photon.self_s", "s"),
    ("quantum.bb84_state.self_s", "s"),            # certify
    ("quantum.density_from_ensemble.self_s", "s"), # certify
    ("quantum.density_in_frame.self_s", "s"),      # certify
    ("quantum.ball_projector.self_s", "s"),        # certify, attack
    ("quantum.small_distance_defect.self_s", "s"), # attack
    ("cosetrho.lemma1_certificate.calls", "count"),  # certify ops_per_s
    ("cosetrho.lemma1_certificate.self_s", "s"),     # holds eigvalsh
    ("cosetrho.lemma1_certificate.condition_met_share", "ratio"),
    ("cosetrho.rho_brute.calls", "count"),
    ("cosetrho.rho_brute.self_s", "s"),
    ("cosetrho.rho_brute.distinct_share", "ratio"),  # distinct (f, x, theta) / calls
    ("cosetrho.rho_closed_form.self_s", "s"),
    ("cosetrho.coset_members", "count"),             # sum of 2^dim
    ("attacks.information_account.calls", "count"),  # attack
    ("attacks.information_account.self_s", "s"),
    ("attacks.statespace", "count"),                 # exact reports
    ("attacks.view_small_distance_defect.self_s", "s"),
    ("attacks.mc_pass_share", "ratio"),              # mean pr_pass of Monte Carlo reports
    ("attacks.apply_strategy.self_s", "s"),          # transfer, attack
    ("attacks.finish_deferred.self_s", "s"),         # transfer, attack
    ("attacks.eve_intercept.self_s", "s"),           # transfer
    ("cli.main.self_s", "s"),                        # no end-to-end metric
    ("cli.artifact_bytes", "bytes"),
    ("trace.overhead_share", "ratio"),               # traced / untraced calibrated wall - 1
)


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans for the calls into TARGETS while entered.

    op_id tags the spans of one benchmark op; the caller sets it before
    each op. Spans keep their tracer's clock (perf_counter_ns).
    """

    def __init__(self):
        self.op_id = -1
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.counters: Counter = Counter()
        self._distinct_brute: set = set()
        self._open: List[list] = []  # [span index, name id, child ns]
        self._saved: List[tuple] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already entered")
        for nid, (mod, path) in enumerate(TARGETS):
            module = importlib.import_module(f"qotsim.{mod}")
            owner, attr = _resolve(module, path)
            raw = vars(owner)[attr]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(nid, raw, _HOOKS.get(NAMES[nid])))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self._open.clear()

    def _wrap(self, nid: int, fn: Callable, hook: Optional[Callable]) -> Callable:
        clock = time.perf_counter_ns
        tracer = self
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops, open_spans = self.span_parent, self.span_op, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = open_spans[-1] if open_spans else None
            frame = [idx, nid, 0]
            names.append(nid)
            parents.append(parent[0] if parent else -1)
            ops.append(tracer.op_id)
            starts.append(0)
            ends.append(0)
            open_spans.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                starts[idx] = start
                ends[idx] = end
                span = end - start
                tracer.self_ns[nid] += span - frame[2]
                tracer.calls[nid] += 1
                if parent is not None:
                    parent[2] += span
            if hook is not None:
                hook(tracer, args, kwargs, result, NAMES[parent[1]] if parent else None)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def counts(self) -> Dict[str, float]:
        """Every deterministic count: call counts, work counts and shares."""
        c = self.counters
        out: Dict[str, float] = {f"{n}.calls": self.calls[i] for i, n in enumerate(NAMES)}
        out.update({
            "gf2.min_distance.span_words": c["span_words"],
            "protocol.bob_decode.coset_words": c["coset_words"],
            "protocol.runs": c["runs"],
            "protocol.aborts.TEST_FAILED": c["TEST_FAILED"],
            "protocol.aborts.SET_SHORTAGE": c["SET_SHORTAGE"],
            "protocol.completed_share": _share(c["completed"], c["runs"]),
            "cosetrho.coset_members": c["coset_members"],
            "cosetrho.rho_brute.distinct_share": _share(
                len(self._distinct_brute), self.calls[NAMES.index("cosetrho.rho_brute")]
            ),
            "cosetrho.lemma1_certificate.condition_met_share": _share(
                c["condition_met"], self.calls[NAMES.index("cosetrho.lemma1_certificate")]
            ),
            "attacks.statespace": c["statespace"],
            "attacks.mc_pass_share": _share(c["mc_pr_pass"], c["mc_reports"]),
        })
        return out

    def self_seconds(self) -> Dict[str, float]:
        return {f"{n}.self_s": self.self_ns[i] / 1e9 for i, n in enumerate(NAMES)}

    def save_spans(self, path) -> None:
        """Write the spans as one .npz of columns, in the order the spans
        opened, so a span's parent index always precedes it."""
        np.savez_compressed(
            path,
            names=np.array(NAMES),
            name=np.frombuffer(self.span_name, dtype=np.uint8),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def _share(part: float, whole: float) -> float:
    """part / whole, and 0 for a layer the workload never reaches."""
    return part / whole if whole else 0.0


# -- count hooks: each runs after a successful call, once its span has closed --

def _min_distance(t, args, kwargs, result, parent):
    code = args[0]
    t.counters["span_words"] += 1 << np.shape(getattr(code, "f", code))[0]


def _solve_affine(t, args, kwargs, result, parent):
    particular, kern = result
    if parent == "protocol.bob_decode" and particular is not None:
        t.counters["coset_words"] += 1 << kern.shape[0]


def _run(t, args, kwargs, result, parent):
    t.counters["runs"] += 1
    t.counters[result.abort_reason or "completed"] += 1


def _rho_brute(t, args, kwargs, result, parent):
    ens = args[0]
    t.counters["coset_members"] += 1 << ens.kernel.shape[0]
    f = ens.code.f
    t._distinct_brute.add((f.shape, f.tobytes(), ens.x.tobytes(), ens.theta.tobytes()))


def _lemma1(t, args, kwargs, result, parent):
    t.counters["condition_met"] += bool(result.condition_met)


def _information_account(t, args, kwargs, result, parent):
    if result.method.value == "EXACT_ENUMERATION":
        t.counters["statespace"] += result.samples_or_statespace
    else:
        t.counters["mc_reports"] += 1
        t.counters["mc_pr_pass"] += result.pr_pass


_HOOKS = {
    "gf2.min_distance": _min_distance,
    "gf2.solve_affine": _solve_affine,
    "protocol.run_string_qot": _run,
    "protocol.run_qkd": _run,
    "cosetrho.rho_brute": _rho_brute,
    "cosetrho.lemma1_certificate": _lemma1,
    "attacks.information_account": _information_account,
}
