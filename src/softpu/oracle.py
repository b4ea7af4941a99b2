"""Exact frontiers and ranking-claim checks on discrete problems.

A :class:`DiscreteProblem` describes a population on m feature cells: each
cell carries a probability mass, a positive-class conditional probability
``eta``, and a conditional soft-label mean ``eta_s``. Everything is computed
at the population level, so the optimal operating frontiers are exact up to
float rounding and the package's ranking claims can be checked against them
with no Monte Carlo noise.

The frontier of a kind (``real`` ranks by eta, ``spu`` by eta_s) is the set
of vertices of the upper-left concave envelope of the (FPR, TPR) points of
all 2^m deterministic classifiers. By the Neyman-Pearson lemma it is traced
by the threshold chain: add cells in decreasing order of the kind's
conditional, tied cells together (:func:`frontier`, O(m log m)). The
brute-force enumeration of all 2^m classifiers (:func:`enumerate_points`,
:func:`exhaustive_frontier`, m <= 20) stays as the cross-check.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .dataset import NUMBERS, REQUIRED, check, check_count, check_finite, check_finite_number
from .dataset import check_kind, check_mass, check_non_negative, check_positive
from .dataset import check_sums_to_one, check_unit_interval, check_vector, load_json

MAX_CELLS = 20
HULL_ATOL = 1e-12
# entries in one block of the pairwise comparisons (assumption4_violations,
# the noisy-gap matching): bounds their memory at any cell count
BLOCK_ENTRIES = 1 << 20
# the keys of a problem file, and of a problem inline in a frontier config
PROBLEM_FILE = {"masses": (NUMBERS, REQUIRED), "eta": (NUMBERS, REQUIRED),
                "eta_s": (NUMBERS, REQUIRED)}


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Cell masses plus per-cell P(Y=1|x) and E[S|x].

    Three 1-D arrays of one length, at least one cell: the masses positive
    and summing to 1, eta and eta_s within [0, 1], all finite.
    The problem keeps its own read-only float64 copies of the three arrays,
    so it cannot change after it is checked, and the frontiers built on it
    are kept with it (:func:`frontier`). Problems compare and hash by
    identity, so two problems built from the same cells are not equal.
    """

    masses: np.ndarray
    eta: np.ndarray
    eta_s: np.ndarray

    def __post_init__(self):
        masses = np.array(self.masses, dtype=np.float64)
        eta = np.array(self.eta, dtype=np.float64)
        eta_s = np.array(self.eta_s, dtype=np.float64)
        check_vector(masses, "masses")
        check_count(masses.size, "number of cells")
        check_vector(eta, "eta", masses.size)
        check_vector(eta_s, "eta_s", masses.size)
        for name, v in (("masses", masses), ("eta", eta), ("eta_s", eta_s)):
            check_finite(v, name)
        check_sums_to_one(masses, "cell masses")
        check_positive(masses.min(), "smallest cell mass")
        check_unit_interval(eta, "eta")
        check_unit_interval(eta_s, "eta_s")
        for name, v in (("masses", masses), ("eta", eta), ("eta_s", eta_s)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @cached_property
    def _frontiers(self) -> dict:
        """The :class:`Frontier` of each kind built so far, by kind."""
        return {}

    @property
    def n_cells(self) -> int:
        return self.masses.size

    @property
    def class_prior(self) -> float:
        return float(np.dot(self.masses, self.eta))

    def to_dict(self):
        return {
            "masses": self.masses.tolist(),
            "eta": self.eta.tolist(),
            "eta_s": self.eta_s.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**check(PROBLEM_FILE, d, noun="problem field"))


def problem_from_json(path) -> DiscreteProblem:
    """The problem in a JSON file, read by :func:`softpu.dataset.load_json`."""
    return DiscreteProblem.from_dict(load_json(path, "problem file"))


def _conditional(problem: DiscreteProblem, kind: str) -> np.ndarray:
    check_kind(kind)
    return problem.eta if kind == "real" else problem.eta_s


def _rate_fractions(problem: DiscreteProblem, kind: str):
    """Per-cell contributions to (TPR, FPR), normalized to sum to 1;
    refused by :func:`~softpu.dataset.check_mass` when a side has no mass."""
    cond = _conditional(problem, kind)
    pos, neg = problem.masses * cond, problem.masses * (1.0 - cond)
    pos_total, neg_total = pos.sum(), neg.sum()
    check_mass(pos_total, kind, 1)
    check_mass(neg_total, kind, 0)
    return pos / pos_total, neg / neg_total


# ---------------------------------------------------------------------------
# brute-force enumeration (the cross-check)
# ---------------------------------------------------------------------------


def enumerate_points(problem: DiscreteProblem, kind: str):
    """(FPR, TPR) of all 2^m deterministic classifiers, indexed by bitmask.

    Classifier ``c`` predicts positive exactly on the cells whose bit is set
    in ``c``. Limited to ``MAX_CELLS`` cells.
    """
    if problem.n_cells > MAX_CELLS:
        raise ValueError(f"cell_count {problem.n_cells} too large for 2^m enumeration "
                         f"(max {MAX_CELLS})")
    pos_frac, neg_frac = _rate_fractions(problem, kind)
    return kernels.enumerate_confusions(pos_frac, neg_frac)


def _frontier_dict(front) -> dict:
    return {
        "kind": front.kind,
        "points": front.points.tolist(),
        "vertex_masks": [int(m) for m in front.vertex_masks],
        "n_on_frontier": int(front.n_on_frontier),
    }


@dataclass(frozen=True)
class EnumeratedFrontier:
    """Brute-force frontier of one metric system.

    ``points`` are the hull vertices sorted by FPR; ``vertex_masks`` gives
    one witness classifier per vertex; ``on_frontier[c]`` says whether
    classifier ``c`` achieves a point on the frontier polyline (within
    HULL_ATOL).
    """

    kind: str
    points: np.ndarray
    vertex_masks: tuple[int, ...]
    on_frontier: np.ndarray

    @property
    def n_on_frontier(self) -> int:
        return int(self.on_frontier.sum())

    def to_dict(self):
        return _frontier_dict(self)


def _hull_vertices(fprs, tprs):
    """Vertices of the upper-left concave envelope of a point cloud.

    Keeps the max TPR per distinct FPR, then runs a monotone-chain upper
    hull that drops collinear midpoints, so only strict vertices remain.
    Each vertex carries the index of its point (first index on ties).
    """
    order = np.lexsort((-tprs, fprs))
    f_sorted = fprs[order]
    t_sorted = tprs[order]
    first = np.concatenate([[0], np.nonzero(np.diff(f_sorted))[0] + 1])
    xs = f_sorted[first]
    ys = t_sorted[first]
    masks = order[first]
    hull = []
    for x, y, c in zip(xs.tolist(), ys.tolist(), masks.tolist()):
        while len(hull) >= 2:
            x1, y1, _ = hull[-2]
            x2, y2, _ = hull[-1]
            cross = (x2 - x1) * (y - y2) - (y2 - y1) * (x - x2)
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append((x, y, c))
    return hull


def exhaustive_frontier(problem: DiscreteProblem, kind: str) -> EnumeratedFrontier:
    """Enumerate all classifiers and extract the optimal frontier.

    The frontier is the upper concave envelope of the achievable (FPR, TPR)
    cloud; no enumerated classifier dominates any of its vertices, and
    thresholding the matching conditional (eta or eta_s) lands exactly on
    it. The brute-force reference for :func:`frontier`.
    """
    fprs, tprs = enumerate_points(problem, kind)
    hull = _hull_vertices(fprs, tprs)
    hull_x = np.array([h[0] for h in hull])
    hull_y = np.array([h[1] for h in hull])
    envelope = np.interp(fprs, hull_x, hull_y)
    on_frontier = tprs >= envelope - HULL_ATOL
    return EnumeratedFrontier(
        kind=kind,
        points=np.column_stack([hull_x, hull_y]),
        vertex_masks=tuple(int(h[2]) for h in hull),
        on_frontier=on_frontier,
    )


# ---------------------------------------------------------------------------
# the threshold chain (the runtime path)
# ---------------------------------------------------------------------------


def _tie_groups(values) -> tuple[tuple[int, ...], ...]:
    """Cell indices grouped by equal value, groups in decreasing value order
    and cells in increasing index order within a group: the order of
    :func:`~softpu.kernels.descending_order`, cut where the value changes."""
    values = np.asarray(values, dtype=np.float64)
    order = kernels.descending_order(values)
    bounds = [0, *(np.flatnonzero(np.diff(values[order])) + 1).tolist(), order.size]
    cells = order.tolist()
    return tuple(tuple(cells[a:b]) for a, b in zip(bounds, bounds[1:]))


def _prefix_masks(groups) -> tuple[int, ...]:
    """Bitmasks of the empty classifier and of each prefix of whole groups."""
    masks, mask = [0], 0
    for g in groups:
        for c in g:
            mask |= 1 << c
        masks.append(mask)
    return tuple(masks)


# Sums of doubles are accumulated exactly as integers and rounded once, so a
# sum depends only on which cells it covers, not on the order they came in.
# Every double of a column is a whole multiple of the column's finest power of
# two, its largest ``float.as_integer_ratio`` denominator: that power is the
# column's unit. The integers then span only the column's own binades, about
# 60 to 120 bits for rate fractions where counts of 2**-1074 took about 1100;
# a column that holds a subnormal keeps 2**-1074 as its unit.


class _Exact(NamedTuple):
    """A column's doubles as integer ``counts`` of its unit ``1 / scale``."""

    counts: list[int]
    scale: int


# The largest unit 1 / scale of which no nonzero count is a subnormal double
_NORMAL_SCALE = 2**1022


def _exact(column) -> _Exact:
    """``column`` at its own unit: ``scale`` is the largest denominator of
    its doubles, each a power of two."""
    ratios = list(map(float.as_integer_ratio, column.tolist()))
    scale = max(d for _, d in ratios)
    return _Exact([n * (scale // d) for n, d in ratios], scale)


def _rounded(counts, scale: int) -> np.ndarray:
    """The correctly rounded doubles of exact counts of the unit ``1 / scale``,
    a power of two.

    Each count is rounded to a double once, and scaling that by ``1 / scale``
    is exact while the result is normal, which every nonzero result is for
    ``scale <= 2**1022``. A larger scale (a column with subnormal values),
    or a count past the double range, takes Python's integer division,
    which rounds correctly in software, whatever the FPU does with
    subnormals.
    """
    if scale <= _NORMAL_SCALE:
        try:
            return np.ldexp(np.array(counts, dtype=np.float64), 1 - scale.bit_length())
        except OverflowError:
            pass
    return np.array([c / scale for c in counts], dtype=np.float64)


def _exact_prefix_sums(groups, counts) -> list[int]:
    """Exact sums over the empty classifier and each whole-group prefix."""
    sums, total = [0], 0
    for g in groups:
        for c in g:
            total += counts[c]
        sums.append(total)
    return sums


def _prefix_sums(groups, column) -> np.ndarray:
    """``column`` summed over the empty classifier and each whole-group
    prefix, each sum correctly rounded."""
    exact = _exact(column)
    return _rounded(_exact_prefix_sums(groups, exact.counts), exact.scale)


def _subsets(group, *counts):
    """Bitmasks of the proper subsets of ``group`` and each column of exact
    counts summed over their cells, in subset-index order (bit i of the
    index is ``group[i]``), which is increasing bitmask order."""
    if len(group) > MAX_CELLS:
        raise ValueError(f"tie group of {len(group)} cells too large for subset "
                         f"enumeration (max {MAX_CELLS})")
    masks = [0]
    sums = [[0] for _ in counts]
    for c in group:
        masks += [s | 1 << c for s in masks]
        for acc, col in zip(sums, counts):
            acc += [s + col[c] for s in acc]
    return masks[:-1], [acc[:-1] for acc in sums]


@dataclass(frozen=True)
class Frontier:
    """Optimal operating points of one metric system, from the threshold chain.

    ``points`` are the hull vertices sorted by FPR and ``vertex_masks`` the
    threshold classifier at each. ``groups`` are the cells tied on the
    kind's conditional, in decreasing order. The classifiers on the
    frontier polyline are a prefix of whole groups plus any subset of the
    next group, except that a first group with zero negative mass (the
    vertical segment at FPR 0) counts only whole (``whole_first``).
    """

    kind: str
    points: np.ndarray
    vertex_masks: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    whole_first: bool

    @cached_property
    def prefix_masks(self) -> tuple[int, ...]:
        return _prefix_masks(self.groups)

    @property
    def n_on_frontier(self) -> int:
        sizes = [len(g) for g in self.groups]
        n = len(sizes) + 1 + sum((1 << s) - 2 for s in sizes)
        return n - ((1 << sizes[0]) - 1 if self.whole_first else 0)

    def _member_sums(self, *exact):
        """Every classifier on the frontier, in increasing bitmask order,
        and each column of :func:`_exact` counts summed exactly over its
        cells and rounded once, plus each column's exact sums over the
        whole-group prefixes (of :func:`_exact_prefix_sums`): one pass
        forms both.

        A member is a whole-group prefix plus a proper subset of the next
        group, or the full classifier.

        The members of group k lie between prefixes k and k + 1 as integers
        and come out of :func:`_subsets` in increasing order, so the list is
        built in bitmask order. A one-cell group's only proper subset is the
        empty one, so its member is the prefix itself.
        """
        prefixes = self.prefix_masks
        bases = [_exact_prefix_sums(self.groups, col.counts) for col in exact]
        masks, sums = [], [[] for _ in exact]
        for k, g in enumerate(self.groups):
            if k == 0 and self.whole_first:
                continue
            if len(g) == 1:
                masks.append(prefixes[k])
                for acc, base in zip(sums, bases):
                    acc.append(base[k])
                continue
            sub_masks, sub_sums = _subsets(g, *(col.counts for col in exact))
            masks += [prefixes[k] | s for s in sub_masks]
            for acc, base, sub in zip(sums, bases, sub_sums):
                acc += [base[k] + s for s in sub]
        masks.append(prefixes[-1])
        for acc, base in zip(sums, bases):
            acc.append(base[-1])
        return masks, [_rounded(acc, col.scale) for acc, col in zip(sums, exact)], bases

    def to_dict(self):
        return _frontier_dict(self)


def frontier(problem: DiscreteProblem, kind: str) -> Frontier:
    """The optimal frontier of one kind from the threshold chain.

    Takes the rates of the whole-group prefixes in decreasing order of the
    kind's conditional (at most m + 1 classifiers) and keeps the strict
    vertices of their upper hull, at any m. In exact arithmetic these are
    the vertices of :func:`exhaustive_frontier`; on tied cells the
    brute-force hull can also keep a subset of a tie group that rounding
    lifted off the segment it lies on.

    Each kind is built once per problem: later calls return the same
    frontier, whose ``points`` are read-only.
    """
    _conditional(problem, kind)  # a bad kind is named, not looked up
    built = problem._frontiers
    if kind not in built:
        built[kind] = _build_frontier(problem, kind)
    return built[kind]


def _build_frontier(problem: DiscreteProblem, kind: str) -> Frontier:
    """The frontier of :func:`frontier`, built afresh."""
    pos_frac, neg_frac = _rate_fractions(problem, kind)
    groups = _tie_groups(_conditional(problem, kind))
    hull = _hull_vertices(_prefix_sums(groups, neg_frac), _prefix_sums(groups, pos_frac))
    prefixes = _prefix_masks(groups)
    points = np.array([[h[0], h[1]] for h in hull])
    points.setflags(write=False)
    return Frontier(
        kind=kind,
        points=points,
        vertex_masks=tuple(prefixes[h[2]] for h in hull),
        groups=groups,
        whole_first=bool(neg_frac[list(groups[0])].sum() == 0.0),
    )


# ---------------------------------------------------------------------------
# monotone-link optimality check
# ---------------------------------------------------------------------------


def _check_strictly_comonotone(problem: DiscreteProblem):
    """Raise naming a pair of cells unless eta_s rises exactly where eta does.

    After sorting by (eta, eta_s), a violating pair exists if and only if
    two neighbours break the rule, so only neighbours are compared.
    """
    eta, eta_s = problem.eta, problem.eta_s
    order = np.lexsort((eta_s, eta))
    a, b = order[:-1], order[1:]
    bad = np.flatnonzero((eta[b] > eta[a]) != (eta_s[b] > eta_s[a]))
    if bad.size:
        i, j = sorted((int(a[bad[0]]), int(b[bad[0]])))
        raise ValueError("eta_s is not a strictly monotone transform of eta: cells "
                         f"{i} (eta={eta[i]}, eta_s={eta_s[i]}) and "
                         f"{j} (eta={eta[j]}, eta_s={eta_s[j]})")


@dataclass(frozen=True)
class MelaOptimalityReport:
    """Comparison of the substitute-metric and real-metric frontiers.

    When E[S|x] is a strictly monotone transform of P(Y=1|x), both systems
    rank cells identically, so the classifiers achieving either frontier
    coincide. ``spu_only`` / ``real_only`` list witness bitmasks on exactly
    one frontier (empty on pass). ``threshold_family_on_both``: every
    whole-group prefix is on both frontiers, false when the first group is
    pure under either kind (the empty classifier is then off its frontier).
    """

    passed: bool
    n_spu_frontier: int
    n_real_frontier: int
    spu_only: tuple[int, ...]
    real_only: tuple[int, ...]
    threshold_family_on_both: bool


def verify_mela_optimality(problem: DiscreteProblem) -> MelaOptimalityReport:
    """Check that the substitute and real frontiers are achieved by the same
    classifiers (requires eta_s strictly comonotone with eta).

    Comonotone conditionals give both kinds the same ordered tie groups, so
    the two frontier families can differ only in the proper subsets of the
    first group, which one kind drops when that group is pure (conditional
    1) under it alone.
    """
    _check_strictly_comonotone(problem)
    spu = frontier(problem, "spu")
    real = frontier(problem, "real")
    partial = ()
    if spu.whole_first != real.whole_first:
        partial = tuple(sorted(_subsets(spu.groups[0])[0]))
    return MelaOptimalityReport(
        passed=not partial,
        n_spu_frontier=spu.n_on_frontier,
        n_real_frontier=real.n_on_frontier,
        spu_only=partial if real.whole_first else (),
        real_only=partial if spu.whole_first else (),
        threshold_family_on_both=not (spu.whole_first or real.whole_first),
    )


# ---------------------------------------------------------------------------
# noisy-link gap check
# ---------------------------------------------------------------------------


def slice_density_bound(problem: DiscreteProblem, width: float) -> float:
    """Max over windows [a, a+width] of mass{eta in window} / width.

    This is the effective density constant at the only scale the gap bound
    uses; point masses make the infinitesimal-width version infinite, so the
    check is meaningful only at the supplied width.
    """
    check_positive(width, "width")
    order = np.argsort(problem.eta)
    eta = problem.eta[order]
    cum = np.concatenate([[0.0], np.cumsum(problem.masses[order])])
    starts = np.concatenate([eta, eta - width])
    lo = np.searchsorted(eta, starts, side="left")
    hi = np.searchsorted(eta, starts + width, side="right")
    return float(max(0.0, (cum[hi] - cum[lo]).max()) / width)


def assumption4_violations(
    problem: DiscreteProblem, epsilon: float, c_h: float
) -> list[tuple[int, int]]:
    """Cell pairs incompatible with any link of slope >= c_h within epsilon.

    A monotone link h with h' >= c_h and |eta_s - h(eta)| <= epsilon forces
    ``c_h * (eta_i - eta_j) <= eta_s_i - eta_s_j + 2 * epsilon`` whenever
    eta_i > eta_j; pairs breaking that are returned, ordered by (i, j).
    """
    eta, eta_s = problem.eta, problem.eta_s
    m = problem.n_cells
    rows = max(1, BLOCK_ENTRIES // m)  # bounds the (rows, m) comparison block
    bad = []
    for lo in range(0, m, rows):
        e = eta[lo : lo + rows, None]
        s = eta_s[lo : lo + rows, None]
        hit = (e > eta) & (c_h * (e - eta) > s - eta_s + 2.0 * epsilon + 1e-12)
        i, j = np.nonzero(hit)
        bad.extend(zip((i + lo).tolist(), j.tolist()))
    return bad


def _staircase_auc(points: np.ndarray) -> float:
    """Trapezoidal area of (fpr, tpr) points sorted by fpr, padded to span
    x in [0, 1]."""
    xs = points[:, 0]
    ys = points[:, 1]
    if xs[0] > 0.0:
        xs = np.concatenate([[0.0], xs])
        ys = np.concatenate([[0.0], ys])
    if xs[-1] < 1.0:
        xs = np.concatenate([xs, [1.0]])
        ys = np.concatenate([ys, [1.0]])
    return float(np.trapezoid(ys, xs))


@dataclass(frozen=True)
class NoisyGapReport:
    """How far the substitute-optimal frontier sits from the real optimum.

    For every vertex of the real frontier, the nearest classifier on the
    substitute frontier is found (smallest worst-case of TPR deficit and FPR
    excess, preferring equal predicted-positive mass); the worst match over
    all vertices must stay within ``4 * M * eps^2 / (pi * c_h^2)`` and the
    area gap within twice that.
    """

    epsilon: float
    c_h: float
    m_const: float
    class_prior: float
    point_bound: float
    auc_bound: float
    max_tpr_deficit: float
    max_fpr_excess: float
    max_point_gap: float
    auc_real_optimal: float
    auc_spu_ranking: float
    auc_gap: float
    matches: tuple[tuple[int, int], ...]  # (real vertex mask, matched spu mask)
    density_bound_effective: float
    density_ok: bool
    link_violations: tuple[tuple[int, int], ...]
    mass_matching_ok: bool
    passed: bool


def _match_vertices(vertices, vertex_mass, spu_fpr, spu_tpr, spu_mass):
    """Each real vertex's substitute match, for blocks of vertices at once.

    ``vertices`` are the real vertices' (FPR, TPR) rows and ``vertex_mass``
    their predicted-positive masses; the candidates are the substitute
    frontier's classifiers, in mask order, with their real rates and masses.
    A vertex is matched to the candidate of least worst-case gap (TPR
    deficit or FPR excess) among those of least mass gap, the first in mask
    order on ties; if that gap exceeds the least gap of all candidates by
    more than 1e-15, to the first candidate of least gap instead.

    Returns, per vertex, the matched candidate's index, its deficit, excess
    and worst-case gap, and the least mass gap of any candidate.
    """
    rows = max(1, BLOCK_ENTRIES // spu_mass.size)  # bounds the (rows, candidates) block
    parts = []
    for lo in range(0, len(vertices), rows):
        fpr = vertices[lo : lo + rows, 0]
        tpr = vertices[lo : lo + rows, 1]
        # max(TPR deficit, FPR excess, 0), built in place: at most two
        # blocks of floats are alive at once
        worst = tpr[:, None] - spu_tpr
        np.maximum(worst, spu_fpr - fpr[:, None], out=worst)
        np.maximum(worst, 0.0, out=worst)
        mass_gap = spu_mass - vertex_mass[lo : lo + rows, None]
        np.abs(mass_gap, out=mass_gap)
        least_mass_gap = mass_gap.min(axis=1)
        closest = mass_gap == least_mass_gap[:, None]
        del mass_gap
        best = np.where(closest, worst, np.inf).argmin(axis=1)
        at = np.arange(best.size)
        fallback = worst[at, best] > worst.min(axis=1) + 1e-15
        best = np.where(fallback, worst.argmin(axis=1), best)
        parts.append(
            (
                best,
                np.maximum(tpr - spu_tpr[best], 0.0),
                np.maximum(spu_fpr[best] - fpr, 0.0),
                worst[at, best],
                least_mass_gap,
            )
        )
    return tuple(np.concatenate(col) for col in zip(*parts))


def verify_noisy_gap(
    problem: DiscreteProblem, epsilon: float, c_h: float, m_const: float
) -> NoisyGapReport:
    """Measure the frontier gaps and compare them to the quadratic bound.

    Preconditions are reported, not asserted: link compatibility, the
    density constant at the scale ``2 * epsilon / c_h``, and mass-matching
    feasibility. The last one matters on discrete cells: the bound's
    matching pairs each real-frontier classifier with a substitute-frontier
    classifier of equal predicted-positive mass, which always exists when
    cell masses are equal but can fail otherwise (and then the measured gap
    may legitimately exceed the bound).

    The candidates are the classifiers on the substitute frontier, taken
    from its threshold chain: subsets are enumerated only inside a tie
    group, which must have at most ``MAX_CELLS`` cells.
    """
    check_positive(c_h, "c_h")
    check_non_negative(epsilon, "epsilon")
    check_finite_number(m_const, "m")
    # the frontiers first: they name a kind without positive or negative mass
    real_frontier = frontier(problem, "real")
    spu_frontier = frontier(problem, "spu")
    pi = problem.class_prior
    try:  # a square, a product or the quotient past the float range
        point_bound = 4.0 * m_const * epsilon**2 / (pi * c_h**2)
        if not math.isfinite(point_bound):
            raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"epsilon={epsilon}, c_h={c_h} and m={m_const} overflow "
                         "the noisy bound") from None
    auc_bound = 2.0 * point_bound

    link_bad = assumption4_violations(problem, epsilon, c_h)
    if epsilon > 0.0:
        m_eff = slice_density_bound(problem, 2.0 * epsilon / c_h)
    else:
        m_eff = 0.0
    density_ok = m_eff <= m_const + 1e-9

    # the real rates and masses of the substitute frontier's members, and
    # the real rates of its threshold classifiers, from one pass per column
    tpr_frac, fpr_frac = _rate_fractions(problem, "real")
    fpr, tpr, mass = _exact(fpr_frac), _exact(tpr_frac), _exact(problem.masses)
    spu_masks, (spu_real_fpr, spu_real_tpr, spu_pred_mass), (fpr_base, tpr_base, _) = (
        spu_frontier._member_sums(fpr, tpr, mass)
    )
    spu_curve = np.column_stack([_rounded(fpr_base, fpr.scale), _rounded(tpr_base, tpr.scale)])
    prefix_mass = _rounded(_exact_prefix_sums(real_frontier.groups, mass.counts), mass.scale)
    prefix_index = dict(zip(real_frontier.prefix_masks, range(len(prefix_mass))))
    vertex_mass = prefix_mass[[prefix_index[v] for v in real_frontier.vertex_masks]]
    best, deficit, excess, gap, least_mass_gap = _match_vertices(
        real_frontier.points, vertex_mass, spu_real_fpr, spu_real_tpr, spu_pred_mass
    )
    matches = [(v, spu_masks[b]) for v, b in zip(real_frontier.vertex_masks, best)]
    max_deficit = float(deficit.max())
    max_excess = float(excess.max())
    max_gap = float(gap.max())
    mass_matching_ok = not np.any(least_mass_gap > 1e-12)

    auc_real_opt = _staircase_auc(real_frontier.points)
    auc_spu_rank = _staircase_auc(spu_curve)
    auc_gap = auc_real_opt - auc_spu_rank

    passed = max_gap <= point_bound + 1e-9 and auc_gap <= auc_bound + 1e-9
    return NoisyGapReport(
        epsilon=float(epsilon),
        c_h=float(c_h),
        m_const=float(m_const),
        class_prior=pi,
        point_bound=point_bound,
        auc_bound=auc_bound,
        max_tpr_deficit=max_deficit,
        max_fpr_excess=max_excess,
        max_point_gap=max_gap,
        auc_real_optimal=auc_real_opt,
        auc_spu_ranking=auc_spu_rank,
        auc_gap=float(auc_gap),
        matches=tuple(matches),
        density_bound_effective=float(m_eff),
        density_ok=density_ok,
        link_violations=tuple(link_bad),
        mass_matching_ok=mass_matching_ok,
        passed=passed,
    )
