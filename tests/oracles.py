"""Independent reference implementations the tests compare against.

Deliberately naive: plain comparison sorts, a literal nested-loop join and a
face-by-face least-squares search, sharing no code with the package. The
vectorized join oracle exists so large instances stay affordable; it is itself
checked against the literal loop on small inputs before anything trusts it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def oracle_sort_rows(keys, rows) -> list[int]:
    """Row ids by key ascending, ties by ascending row id."""
    return [r for _, r in sorted(zip(keys, rows), key=lambda p: (p[0], p[1]))]


def oracle_topk_rows(keys, rows, k: int) -> list[int]:
    """Row ids of the k largest keys, key descending, ties by ascending row id."""
    ordered = sorted(zip(keys, rows), key=lambda p: (-p[0], p[1]))
    return [r for _, r in ordered[: min(k, len(ordered))]]


def oracle_join_loop(build_keys, build_rows, probe_keys, probe_rows):
    """Literal nested loop, probe-major: the defining order for matches."""
    out = []
    for pk, pr in zip(probe_keys, probe_rows):
        for bk, br in zip(build_keys, build_rows):
            if bk == pk:
                out.append((int(pr), int(br)))
    return out


def oracle_join_outer(build_keys, build_rows, probe_keys, probe_rows):
    """Vectorized nested-loop join; same output order as oracle_join_loop."""
    bk = np.asarray(build_keys, dtype=np.float64)
    pk = np.asarray(probe_keys, dtype=np.float64)
    if len(bk) == 0 or len(pk) == 0:
        return []
    hits = np.argwhere(np.equal.outer(pk, bk))  # row-major == probe-major
    br = np.asarray(build_rows)
    pr = np.asarray(probe_rows)
    return [(int(pr[i]), int(br[j])) for i, j in hits]


def oracle_percentile(samples, p: float) -> float:
    """Nearest-rank by counting: smallest x with #(samples <= x) >= ceil(p*n)."""
    need = max(1, math.ceil(p * len(samples)))
    for x in sorted(samples):
        if sum(1 for s in samples if s <= x) >= need:
            return x
    raise AssertionError("unreachable for nonempty samples")


def oracle_nnls(xs, ys, relative=False, through_origin=False):
    """(slope, intercept, loss) of the non-negative weighted fit of ys on {xs, 1}.

    Brute force over the faces of the non-negative orthant: np.linalg.lstsq on
    every subset of the basis, rows scaled by sqrt(weight), keeping the
    feasible fit with the lowest loss. The weight is 1, or 1/y**2 when
    relative, which drops samples with y <= 0; through_origin leaves the
    constant column out.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if relative:
        x, y = x[y > 0.0], y[y > 0.0]
    sqrt_w = 1.0 / y if relative else np.ones_like(y)
    columns = {"slope": x, "intercept": np.ones_like(x)}
    names = ["slope"] if through_origin else ["slope", "intercept"]
    best = None
    for size in range(len(names) + 1):
        for face in itertools.combinations(names, size):
            coef = {"slope": 0.0, "intercept": 0.0}
            if face:
                a = np.stack([columns[c] * sqrt_w for c in face], axis=1)
                sol = np.linalg.lstsq(a, y * sqrt_w, rcond=None)[0]
                if np.any(sol < 0.0):
                    continue
                coef.update(zip(face, sol.tolist()))
            resid = (coef["slope"] * x + coef["intercept"] - y) * sqrt_w
            loss = float(np.dot(resid, resid))
            if best is None or loss < best[2]:
                best = (coef["slope"], coef["intercept"], loss)
    return best
