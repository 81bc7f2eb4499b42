"""Sample statistics, the environment record and ``compare``.

Result documents are the ``--out`` files of ``run``.  Each holds, per
workload, every end-to-end metric as a :func:`summarize` dict (median,
quartiles, count, tail, spread), plus ``attempted``/``failed`` counts, and
the environment the run saw.  ``compare`` reads the regression bounds from
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]

#: environment fields whose difference makes two documents hard to compare
ENV_KEYS = ("nproc", "python", "numpy", "blas", "threads")


def load_benchmark() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _quartiles(data: list[float]) -> tuple[float, float]:
    if len(data) >= 2:
        q1, _q2, q3 = statistics.quantiles(data, n=4)
        return q1, q3
    return data[0], data[0]


def summarize(values: list[float],
              groups: list[list[float]] | None = None) -> dict[str, Any]:
    """Median, quartiles (``statistics.quantiles(n=4)``), count, the
    highest of P90/P99/P99.9 that still has ten samples beyond it, and the
    ``spread``: the interquartile distance of the per-group medians (of
    the values themselves without ``groups``) as a share of the median.

    Groups are a run's rounds.  The quartiles of a round's samples describe
    a latency distribution; how far round medians disagree estimates how
    far the run's median can be trusted."""
    if not values:
        return {"value": None, "q1": None, "q3": None, "n": 0, "tail": None,
                "spread": None}
    data = sorted(values)
    q1, q3 = _quartiles(data)
    tail = None
    for p in (90, 99, 99.9):
        if len(data) * (100 - p) / 100 >= 10:
            tail = {"p": p, "value": data[min(len(data) - 1,
                                              int(len(data) * p / 100))]}
    value = statistics.median(data)
    medians = [statistics.median(g) for g in groups if g] if groups else data
    g1, g3 = _quartiles(sorted(medians))
    return {"value": value, "q1": q1, "q3": q3, "n": len(data),
            "tail": tail, "spread": (g3 - g1) / abs(value) if value else 0.0}


def _blas() -> str | None:
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        return None


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly (the benchmark may
    run from a plain copy of the tree, where there is none)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def environment() -> dict[str, Any]:
    """What the run saw.  BLAS threads are recorded, never pinned: the
    benchmark measures what a user gets."""
    try:
        import numpy as np

        numpy_version = np.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": _blas(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "git_sha": _git_sha(ROOT),
        "loadavg": list(os.getloadavg()),
    }


def env_warnings(base: dict[str, Any], new: dict[str, Any]) -> list[str]:
    b, n = base.get("env", {}), new.get("env", {})
    return [f"environment differs: {k} {b.get(k)!r} vs {n.get(k)!r}"
            for k in ENV_KEYS if b.get(k) != n.get(k)]


# -- verdicts ------------------------------------------------------------------------


def _worse_by(base: float, new: float, better: str) -> float:
    """Relative change, positive when ``new`` is worse."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _failed_frac(wdoc: dict[str, Any]) -> float:
    return wdoc["failed"] / max(1, wdoc["attempted"])


def compare_docs(base: dict[str, Any], new: dict[str, Any],
                 bench: dict[str, Any]) -> list[tuple[str, str, str, str]]:
    """(workload, metric, verdict, detail) for every shared pair.

    ``unresolved`` when either side's spread (how far its rounds' medians
    disagree) exceeds the bound; otherwise ``worse``/``better`` when the
    medians differ by more than the bound, else ``same``.  A higher failure
    fraction is ``worse``.  One run a side cannot see drift between runs;
    claims need :func:`compare_pairs`.
    """
    rows = []
    for wname in sorted(set(base["workloads"]) & set(new["workloads"])):
        bw, nw = base["workloads"][wname], new["workloads"][wname]
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bs, ns = bw["end_to_end"].get(name), nw["end_to_end"].get(name)
            if not bs or not ns or not bs["value"] or ns["value"] is None:
                rows.append((wname, name, "unresolved", "missing"))
                continue
            delta = _worse_by(bs["value"], ns["value"], m["better"])
            sb, sn = bs["spread"], ns["spread"]
            detail = (f"{bs['value']:.6g} -> {ns['value']:.6g} {m['unit']} "
                      f"(worse by {delta:+.1%}; spread {sb:.1%}/{sn:.1%}, "
                      f"bound {bound:.0%})")
            if max(sb, sn) > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "worse"
            elif -delta > bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append((wname, name, verdict, detail))
        fb, fn = _failed_frac(bw), _failed_frac(nw)
        rows.append((wname, "failed_frac", "worse" if fn > fb else "same",
                     f"{fb:.4g} -> {fn:.4g}"))
    return rows


def compare_pairs(bases: list[dict[str, Any]], news: list[dict[str, Any]],
                  bench: dict[str, Any]) -> list[tuple[str, str, str, str]]:
    """Verdicts over alternated parent/change runs (one document each).

    ``better`` needs the change to win at least 9/10 of the pairs (ties
    count for neither) and the medians to differ by more than the parent's
    own interquartile distance.  ``worse`` is a median more than the bound
    worse; where the run-to-run spread exceeds the bound the verdict is
    ``unresolved`` unless every change run beats every parent run.
    """
    rows = []
    names = set(bases[0]["workloads"]).intersection(
        *(d["workloads"] for d in bases + news))
    for wname in sorted(names):
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            b = [d["workloads"][wname]["end_to_end"][name]["value"]
                 for d in bases]
            n = [d["workloads"][wname]["end_to_end"][name]["value"]
                 for d in news]
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(b, n))
            frac = wins / len(b)
            sb, sn = summarize(b), summarize(n)
            delta = _worse_by(sb["value"], sn["value"], better)
            parent_iqr = sb["q3"] - sb["q1"]
            run_spread = max(sb["spread"], sn["spread"])
            all_better = max(sign * y for y in n) < min(sign * x for x in b)
            detail = (f"median {sb['value']:.6g} -> {sn['value']:.6g} "
                      f"{m['unit']}, change won {wins}/{len(b)}, "
                      f"spread {run_spread:.1%}, bound {bound:.0%}")
            if (frac >= 0.9
                    and abs(sn["value"] - sb["value"]) > parent_iqr) \
                    or all_better:
                verdict = "better"
            elif run_spread > bound:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "worse"
            else:
                verdict = "same"
            rows.append((wname, name, verdict, detail))
        fb = _failed_frac(_pooled(bases, wname))
        fn = _failed_frac(_pooled(news, wname))
        rows.append((wname, "failed_frac", "worse" if fn > fb else "same",
                     f"{fb:.4g} -> {fn:.4g}"))
    return rows


def _pooled(docs: list[dict[str, Any]], wname: str) -> dict[str, int]:
    return {k: sum(d["workloads"][wname][k] for d in docs)
            for k in ("attempted", "failed")}


def format_rows(rows: list[tuple[str, str, str, str]]) -> str:
    return "\n".join(f"{w:<14} {m:<14} {v:<10} {d}" for w, m, v, d in rows)
