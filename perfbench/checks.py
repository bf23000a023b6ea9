"""Output checks written independently of the package under test.

Each check raises :class:`CheckFailed` with a reason. None of them calls
into ``hyperindep``: the `.nhg` reader, the girth and linearity tests, the
independence test and the coloring rules are re-implemented here with plain
numpy, so a fault in the package cannot hide itself.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program broke a property the benchmark checks."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------


def read_nhg(path) -> tuple[int, dict[int, np.ndarray]]:
    """Read an `.nhg` file into ``(n, {size: rows})``, rows as int64."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    require(len(body) >= 2 and body[0] == "nhg 1", "missing 'nhg 1' header")
    head = body[1].split()
    require(len(head) == 2 and head[0] == "n" and head[1].isdigit(), "bad 'n' line")
    n = int(head[1])
    rows: dict[int, list[list[str]]] = {}
    for ln in body[2:]:
        parts = ln.split()
        require(parts[0] == "e", f"unexpected line {ln[:40]!r}")
        rows.setdefault(len(parts) - 1, []).append(parts[1:])
    return n, {s: np.array(r, dtype=np.int64).reshape(-1, s) for s, r in sorted(rows.items())}


def check_rows(n: int, by_size: dict[int, np.ndarray]) -> None:
    """Edges have >= 2 strictly increasing ids in 0..n-1 and are distinct."""
    for s, arr in by_size.items():
        require(s >= 2, f"edge of size {s}")
        require(bool((arr >= 0).all() and (arr < n).all()), f"size-{s} edge outside 0..{n - 1}")
        require(bool((np.diff(arr, axis=1) > 0).all()), f"size-{s} edge with a loop or unsorted ids")
        require(len(np.unique(arr, axis=0)) == len(arr), f"repeated size-{s} edge")


def layer_target(n: int, size: int, t: float) -> int:
    return int(round(n * t ** (size - 1) / size))


def check_counts(n: int, by_size: dict[int, np.ndarray], targets: dict[int, float]) -> None:
    require(sorted(by_size) == sorted(targets), f"edge sizes {sorted(by_size)} != {sorted(targets)}")
    for s, t in targets.items():
        want = layer_target(n, s, t)
        require(len(by_size[s]) == want, f"{len(by_size[s])} size-{s} edges, expected {want}")


def check_girth5(n: int, pairs: np.ndarray) -> None:
    """No 3- or 4-cycle among the 2-edges ``pairs`` (rows a < b).

    Every path x-m-y through a middle vertex m is listed once; a 3-cycle
    makes some {x, y} an edge and a 4-cycle makes some {x, y} repeat.
    """
    if len(pairs) < 3:
        return
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(deg[:-1], out=start[1:])
    pos = np.arange(len(src)) - start[src]
    later = deg[src] - pos - 1  # partners after this half-edge in its block
    first = np.repeat(np.arange(len(src)), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    second = first + 1 + offset
    x, y = dst[first], dst[second]
    wedge_keys = np.minimum(x, y) * n + np.maximum(x, y)
    uniq = np.unique(wedge_keys)
    require(len(uniq) == len(wedge_keys), "two vertices share two neighbours (a 4-cycle)")
    edge_keys = pairs[:, 0] * n + pairs[:, 1]
    require(not np.isin(uniq, edge_keys).any(), "a wedge closes into a triangle")


def check_linear(n: int, by_size: dict[int, np.ndarray]) -> None:
    """No vertex pair lies in two edges."""
    keys = []
    for s, arr in by_size.items():
        for i in range(s):
            for j in range(i + 1, s):
                keys.append(arr[:, i] * n + arr[:, j])
    if keys:
        allk = np.concatenate(keys)
        require(len(np.unique(allk)) == len(allk), "a vertex pair lies in two edges")


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------


def read_report(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        doc = json.load(fh)
    require(isinstance(doc, dict) and isinstance(doc.get("witness"), list), "report has no witness")
    return doc


def check_witness(n: int, by_size: dict[int, np.ndarray], report: dict) -> np.ndarray:
    """The report's witness is distinct, in range and independent."""
    w = np.array(report["witness"], dtype=np.int64)
    require(report.get("verified") is True, "report is not marked verified")
    require(report.get("size") == len(w), "report size differs from its witness length")
    require(len(np.unique(w)) == len(w), "witness repeats a vertex")
    require(bool(((w >= 0) & (w < n)).all()), "witness vertex outside 0..n-1")
    mask = np.zeros(n, dtype=bool)
    mask[w] = True
    for s, arr in by_size.items():
        inside = mask[arr].all(axis=1)
        require(not inside.any(), f"witness contains a size-{s} edge {arr[inside][:1].tolist()}")
    return w


def caro_wei(n: int, pairs: np.ndarray) -> float:
    deg = np.bincount(pairs.ravel(), minlength=n)
    return float((1.0 / (deg + 1.0)).sum())


def check_caro_wei(n: int, pairs: np.ndarray, size: int) -> None:
    """Min-degree greedy reaches sum 1/(d(v)+1) on graphs, and best_of races it."""
    bound = caro_wei(n, pairs)
    require(size >= bound - 1e-9, f"set size {size} below Caro-Wei {bound:.1f}")


def check_deletion_bound(n: int, by_size: dict[int, np.ndarray], size: int) -> None:
    """Random deletion reaches ceil(n / 4T), T the largest average-degree value."""
    T = max((s * len(a) / n) ** (1.0 / (s - 1)) for s, a in by_size.items())
    bound = math.ceil(n / (4 * T))
    require(size >= bound, f"set size {size} below ceil(n/4T) = {bound}")


# ----------------------------------------------------------------------
# colorings and rainbow sets
# ----------------------------------------------------------------------


def coloring_groups(classes: list[list[tuple[int, ...]]]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Edges grouped by size as ``{size: (rows, class ids)}``."""
    grouped: dict[int, tuple[list, list]] = {}
    for cid, edges in enumerate(classes):
        for e in edges:
            rows, ids = grouped.setdefault(len(e), ([], []))
            rows.append(e)
            ids.append(cid)
    return {
        s: (np.array(rows, dtype=np.int64).reshape(-1, s), np.array(ids, dtype=np.int64))
        for s, (rows, ids) in grouped.items()
    }


def check_coloring(
    n: int, u: int, classes: list[list[tuple[int, ...]]]
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Each class is a matching of at most u same-size edges, and no edge
    carries two colors. Returns the coloring's :func:`coloring_groups`."""
    for cid, edges in enumerate(classes):
        require(0 < len(edges) <= u, f"class {cid} has {len(edges)} edges, bound {u}")
        require(len({len(e) for e in edges}) == 1, f"class {cid} mixes edge sizes")
    groups = coloring_groups(classes)
    for s, (rows, ids) in groups.items():
        require(bool(((rows >= 0) & (rows < n)).all()), f"size-{s} colored edge outside 0..{n - 1}")
        canon = np.sort(rows, axis=1)
        require(bool((np.diff(canon, axis=1) > 0).all()), f"size-{s} colored edge repeats a vertex")
        require(len(np.unique(canon, axis=0)) == len(canon), "an edge has two colors")
        owner = np.repeat(ids, s) * n + rows.ravel()
        require(len(np.unique(owner)) == len(owner), "a class is not a matching")
    return groups


def check_rainbow(n: int, groups: dict[int, tuple[np.ndarray, np.ndarray]], found) -> None:
    """``found`` lies in 0..n-1 and holds at most one edge of each class of
    the coloring whose :func:`coloring_groups` are ``groups``."""
    fs = np.array([int(v) for v in found], dtype=np.int64)
    require(len(np.unique(fs)) == len(fs), "rainbow set repeats a vertex")
    require(bool(((fs >= 0) & (fs < n)).all()), "rainbow set vertex outside 0..n-1")
    mask = np.zeros(n, dtype=bool)
    mask[fs] = True
    for rows, ids in groups.values():
        per_class = np.bincount(ids[mask[rows].all(axis=1)])
        require(not (per_class > 1).any(), "rainbow set holds two edges of one class")
