"""Cross-run comparison and regression detection.

Two comparisons, one row type:

* :func:`diff_runs` — two stored campaign runs, grouped on the same
  axes as :meth:`ResultStore.query`; per group × metric it reports
  both means, their delta and ratio, and whether the change crosses
  the regression threshold *in the metric's bad direction* (more
  rounds is worse, more availability is better).
* :func:`diff_bench` — two ``BENCH_*.json`` payloads (or any two
  entries of a store's bench trajectory): shared numeric leaves are
  throughput-like and higher-is-better, except seconds (leaves ending
  in ``_s``), where a rise beyond the threshold is the regression.

Both return :class:`DiffRow` lists; :func:`gate` folds a list into a
pass/fail verdict usable as a CI exit code (the ``repro compare``
subcommand does exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .store import DEFAULT_GROUP_BY, ResultStore

#: Measures where growth is a regression (cost-like).
HIGHER_IS_WORSE = frozenset({
    "steps", "rounds", "k_efficiency", "max_bits_per_step", "total_bits",
    "mean_recovery_rounds", "post_fault_bits", "faults_injected",
})

#: Measures where shrinkage is a regression (quality-like).
HIGHER_IS_BETTER = frozenset({
    "availability", "legitimate", "silent", "steps_per_sec",
})

#: Default measures compared by :func:`diff_runs`.
DEFAULT_DIFF_METRICS = ("rounds", "steps", "total_bits")

#: Bench payload keys that describe the setup, not a measurement.
_BENCH_CONTEXT_KEYS = frozenset({"n", "budget_s", "seed"})

#: Bench leaves :func:`diff_bench` never ratio-gates: a signed fraction
#: near zero, whose absolute ceiling the bench itself asserts.
_BENCH_UNGATED_LEAVES = frozenset({"enabled_overhead"})


@dataclass(frozen=True)
class DiffRow:
    """One compared cell: a group × metric across two sides."""

    #: human-readable group label ("coloring/ring/synchronous" or a
    #: bench leaf path like "hot_loop.flat_aggregate")
    group: str
    metric: str
    value_a: float
    value_b: float
    #: value_b - value_a
    delta: float
    #: value_b / value_a (inf when a == 0 and b != 0; 1.0 when both 0)
    ratio: float
    #: the change crosses the threshold in the metric's bad direction
    regressed: bool

    def describe(self) -> str:
        """One table-free line for logs and CI output."""
        arrow = "REGRESSED" if self.regressed else "ok"
        return (f"{self.group} {self.metric}: "
                f"{self.value_a:g} -> {self.value_b:g} "
                f"({self.ratio:.3f}x) {arrow}")


def _require_runs(store: ResultStore, *run_ids: str) -> None:
    """Raise on run ids the store does not hold."""
    unknown = [r for r in run_ids if not store.has_run(r)]
    if unknown:
        known = [info.run_id for info in store.runs()]
        raise ValueError(
            f"unknown run id(s) {unknown} in {store.path!r}; "
            f"stored runs: {known}"
        )


def _ratio(a: float, b: float) -> float:
    if a == 0:
        return 1.0 if b == 0 else math.inf
    return b / a


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless ``threshold`` is a finite fraction ≥ 0.

    Every comparison against a NaN is false, so a NaN threshold would
    pass any drop; a negative one fails identical inputs.
    """
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(
            f"regression threshold must be a finite fraction >= 0, "
            f"got {threshold!r}"
        )


def _is_regression(metric: str, a: float, b: float,
                   threshold: float) -> bool:
    """Did ``b`` move past ``threshold`` in ``metric``'s bad direction?

    Unknown metrics are treated as cost-like (higher is worse) — the
    conservative default for new measures.
    """
    if metric in HIGHER_IS_BETTER:
        return b < a * (1.0 - threshold)
    return b > a * (1.0 + threshold)


def _group_label(gkey: Tuple) -> str:
    return "/".join("-" if part is None else str(part)
                    for part in gkey) or "(all)"


def diff_runs_detailed(
    store: ResultStore,
    run_a: str,
    run_b: str,
    metrics: Sequence[str] = DEFAULT_DIFF_METRICS,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    where: Optional[Mapping[str, Any]] = None,
    threshold: float = 0.10,
) -> Tuple[List[DiffRow], List[str], List[str]]:
    """Compare two stored runs group-by-group, metric-by-metric.

    Returns ``(rows, only_in_a, only_in_b)`` from one grouped query
    per run: rows compare the groups present on *both* sides (a group
    existing on one side only means the campaigns measured different
    spaces — reported in the ``only_*`` lists, not silently gated).
    Unknown run ids raise — a typo'd id must fail the gate loudly, not
    produce an empty comparison that reads as "0 regressed" — and so
    does a threshold :func:`check_threshold` refuses.
    """
    check_threshold(threshold)
    _require_runs(store, run_a, run_b)

    def grouped(run_id: str) -> Dict[Tuple, Dict[str, float]]:
        return {
            tuple(g.group[c] for c in group_by):
                {m: g.aggregates[m].mean for m in metrics}
            for g in store.query(metrics=metrics, where=where,
                                 group_by=group_by, run_id=run_id)
        }

    side_a = grouped(run_a)
    side_b = grouped(run_b)
    rows: List[DiffRow] = []
    for gkey in sorted(side_a, key=repr):
        if gkey not in side_b:
            continue
        label = _group_label(gkey)
        for metric in metrics:
            a, b = side_a[gkey][metric], side_b[gkey][metric]
            rows.append(DiffRow(
                group=label, metric=metric,
                value_a=a, value_b=b, delta=b - a, ratio=_ratio(a, b),
                regressed=_is_regression(metric, a, b, threshold),
            ))
    only_a = sorted(_group_label(k) for k in side_a.keys() - side_b.keys())
    only_b = sorted(_group_label(k) for k in side_b.keys() - side_a.keys())
    return rows, only_a, only_b


def diff_runs(
    store: ResultStore,
    run_a: str,
    run_b: str,
    metrics: Sequence[str] = DEFAULT_DIFF_METRICS,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
    where: Optional[Mapping[str, Any]] = None,
    threshold: float = 0.10,
) -> List[DiffRow]:
    """The comparison rows of :func:`diff_runs_detailed`."""
    rows, _only_a, _only_b = diff_runs_detailed(
        store, run_a, run_b, metrics=metrics, group_by=group_by,
        where=where, threshold=threshold,
    )
    return rows


def missing_groups(
    store: ResultStore,
    run_a: str,
    run_b: str,
    group_by: Sequence[str] = DEFAULT_GROUP_BY,
) -> Tuple[List[str], List[str]]:
    """Group labels present in exactly one of the two runs."""
    _rows, only_a, only_b = diff_runs_detailed(
        store, run_a, run_b, metrics=("rounds",), group_by=group_by,
    )
    return only_a, only_b


# ----------------------------------------------------------------------
# BENCH_*.json trajectories
# ----------------------------------------------------------------------
def flatten_bench(payload: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten one bench payload into ``leaf path -> numeric value``.

    Dicts nest with ``.``; lists of dicts (the engine grid) key their
    entries by the identifying string cells, so the same cell lines up
    across emissions regardless of row order.  Context keys
    (``n``, ``budget_s``) are dropped — they parameterize the run, they
    are not measurements.
    """
    out: Dict[str, float] = {}

    def walk(node: Any, path: str) -> None:
        if isinstance(node, Mapping):
            for key, value in node.items():
                if key in _BENCH_CONTEXT_KEYS:
                    continue
                walk(value, f"{path}.{key}" if path else str(key))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                if isinstance(item, Mapping):
                    ident = "/".join(
                        str(v) for v in item.values()
                        if isinstance(v, str)
                    ) or str(i)
                    walk(item, f"{path}[{ident}]")
                else:
                    walk(item, f"{path}[{i}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[path] = float(node)

    walk(payload, "")
    return out


def diff_bench(
    payload_a: Mapping[str, Any],
    payload_b: Mapping[str, Any],
    mode: Optional[str] = None,
    threshold: float = 0.25,
) -> List[DiffRow]:
    """Compare two bench payloads (e.g. two ``BENCH_3.json`` snapshots).

    ``mode`` selects one section ("full" / "tiny") when the payloads
    are mode-keyed, as the repo's BENCH files are.  Shared numeric
    leaves are compared as higher-is-better (these files hold steps/sec
    rates and speedup ratios) and a drop past ``threshold`` is a
    regression; leaves ending in ``_s`` are seconds, where a rise past
    ``threshold`` is.  ``enabled_overhead`` (a signed fraction near
    zero) is reported but never regresses.  Leaves present on one side
    only are ignored — bench coverage grows over time.  A threshold
    :func:`check_threshold` refuses raises ``ValueError``.
    """
    check_threshold(threshold)
    if mode is not None:
        payload_a = payload_a.get(mode, {})
        payload_b = payload_b.get(mode, {})
    flat_a = flatten_bench(payload_a)
    flat_b = flatten_bench(payload_b)
    rows: List[DiffRow] = []
    for path in sorted(set(flat_a) & set(flat_b)):
        a, b = flat_a[path], flat_b[path]
        leaf = path.rsplit(".", 1)[-1]
        if leaf in _BENCH_UNGATED_LEAVES:
            regressed = False
        elif leaf.endswith("_s"):
            regressed = b > a * (1.0 + threshold)
        else:
            regressed = b < a * (1.0 - threshold)
        rows.append(DiffRow(
            group=path, metric="value",
            value_a=a, value_b=b, delta=b - a, ratio=_ratio(a, b),
            regressed=regressed,
        ))
    return rows


def gate(rows: Sequence[DiffRow]) -> bool:
    """True when no row regressed — the CI pass/fail verdict."""
    return not any(row.regressed for row in rows)
