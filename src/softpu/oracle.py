"""Brute-force ground truth on small discrete problems.

A :class:`DiscreteProblem` describes a population on m feature cells (m <=
20): each cell carries a probability mass, a positive-class conditional
probability ``eta``, and a conditional soft-label mean ``eta_s``. Every one
of the 2^m deterministic classifiers is enumerated in closed form, so the
optimal operating frontiers are exact up to float rounding and the package's
ranking claims can be checked against them with no Monte Carlo noise.

The frontier returned here is the set of vertices of the upper-left concave
envelope of the 2^m achievable (FPR, TPR) points: exactly the operating
points that score-threshold sweeps can attain, and none of them is dominated
by any enumerated classifier.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels

MAX_CELLS = 20
HULL_ATOL = 1e-12


@dataclass(frozen=True)
class DiscreteProblem:
    """Cell masses plus per-cell P(Y=1|x) and E[S|x]."""

    masses: np.ndarray
    eta: np.ndarray
    eta_s: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=np.float64)
        eta = np.asarray(self.eta, dtype=np.float64)
        eta_s = np.asarray(self.eta_s, dtype=np.float64)
        if not (masses.shape == eta.shape == eta_s.shape) or masses.ndim != 1:
            raise ValueError("masses, eta, eta_s must be matching 1-D arrays")
        if masses.size < 1:
            raise ValueError("need at least one cell")
        if masses.size > MAX_CELLS:
            raise ValueError(
                f"cell_count {masses.size} too large for 2^m enumeration "
                f"(max {MAX_CELLS})"
            )
        if np.any(masses <= 0.0):
            raise ValueError("cell masses must be positive")
        if abs(masses.sum() - 1.0) > 1e-9:
            raise ValueError(f"cell masses must sum to 1, got {masses.sum()!r}")
        for name, v in (("eta", eta), ("eta_s", eta_s)):
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise ValueError(f"{name} values must lie in [0, 1]")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "eta_s", eta_s)

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
        return cls(
            masses=np.asarray(d["masses"], dtype=np.float64),
            eta=np.asarray(d["eta"], dtype=np.float64),
            eta_s=np.asarray(d["eta_s"], dtype=np.float64),
        )


def problem_to_json(problem: DiscreteProblem, path) -> None:
    Path(path).write_text(
        json.dumps(problem.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def problem_from_json(path) -> DiscreteProblem:
    return DiscreteProblem.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _rate_fractions(problem: DiscreteProblem, kind: str):
    """Per-cell contributions to (TPR, FPR), normalized to sum to 1."""
    if kind not in ("real", "spu"):
        raise ValueError("kind must be 'real' or 'spu'")
    cond = problem.eta if kind == "real" else problem.eta_s
    pos = problem.masses * cond
    neg = problem.masses * (1.0 - cond)
    pos_total = pos.sum()
    neg_total = neg.sum()
    if pos_total <= 0.0:
        raise ValueError(f"{kind}: positive mass is zero, rates undefined")
    if neg_total <= 0.0:
        raise ValueError(f"{kind}: negative mass is zero, rates undefined")
    return pos / pos_total, neg / neg_total


def enumerate_points(problem: DiscreteProblem, kind: str):
    """(FPR, TPR) of all 2^m deterministic classifiers, indexed by bitmask.

    Classifier ``c`` predicts positive exactly on the cells whose bit is set
    in ``c``.
    """
    pos_frac, neg_frac = _rate_fractions(problem, kind)
    return kernels.enumerate_confusions(pos_frac, neg_frac)


@dataclass(frozen=True)
class Frontier:
    """Optimal operating points of one metric system.

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
    def frontier_masks(self) -> np.ndarray:
        return np.nonzero(self.on_frontier)[0]

    def to_dict(self):
        return {
            "kind": self.kind,
            "points": self.points.tolist(),
            "vertex_masks": [int(m) for m in self.vertex_masks],
            "n_on_frontier": int(self.on_frontier.sum()),
        }


def _hull_vertices(fprs, tprs):
    """Vertices of the upper-left concave envelope of a point cloud.

    Keeps the max TPR per distinct FPR, then runs a monotone-chain upper
    hull that drops collinear midpoints, so only strict vertices remain.
    """
    order = np.lexsort((-tprs, fprs))
    f_sorted = fprs[order]
    t_sorted = tprs[order]
    first = np.concatenate([[0], np.nonzero(np.diff(f_sorted))[0] + 1])
    xs = f_sorted[first]
    ys = t_sorted[first]
    masks = order[first]
    hull = []
    for x, y, c in zip(xs, ys, masks):
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


def exhaustive_frontier(problem: DiscreteProblem, kind: str) -> Frontier:
    """Enumerate all classifiers and extract the optimal frontier.

    The frontier is the upper concave envelope of the achievable (FPR, TPR)
    cloud; no enumerated classifier dominates any of its vertices, and
    thresholding the matching conditional (eta or eta_s) lands exactly on
    it.
    """
    fprs, tprs = enumerate_points(problem, kind)
    hull = _hull_vertices(fprs, tprs)
    hull_x = np.array([h[0] for h in hull])
    hull_y = np.array([h[1] for h in hull])
    envelope = np.interp(fprs, hull_x, hull_y)
    on_frontier = tprs >= envelope - HULL_ATOL
    return Frontier(
        kind=kind,
        points=np.column_stack([hull_x, hull_y]),
        vertex_masks=tuple(int(h[2]) for h in hull),
        on_frontier=on_frontier,
    )


def threshold_masks(values) -> list[int]:
    """Classifier bitmasks from thresholding a per-cell statistic.

    Strict rule value > T with T swept over the distinct values top-down:
    cells with equal values enter together. Starts with the empty classifier
    (threshold at the maximum) and ends with the full one.
    """
    values = np.asarray(values, dtype=np.float64)
    masks = [0]
    mask = 0
    for v in np.unique(values)[::-1]:
        for j in np.nonzero(values == v)[0]:
            mask |= 1 << int(j)
        masks.append(mask)
    return masks


def mask_rates(problem: DiscreteProblem, kind: str, mask: int) -> tuple[float, float]:
    """(FPR, TPR) of one classifier bitmask, computed directly."""
    pos_frac, neg_frac = _rate_fractions(problem, kind)
    sel = np.array([(mask >> j) & 1 for j in range(problem.n_cells)], dtype=np.float64)
    return float(neg_frac @ sel), float(pos_frac @ sel)


# ---------------------------------------------------------------------------
# monotone-link optimality check
# ---------------------------------------------------------------------------


def _check_strictly_comonotone(problem: DiscreteProblem):
    eta, eta_s = problem.eta, problem.eta_s
    m = problem.n_cells
    for i in range(m):
        for j in range(i + 1, m):
            de = eta[i] - eta[j]
            ds = eta_s[i] - eta_s[j]
            if (de == 0.0) != (ds == 0.0) or de * ds < 0.0:
                raise ValueError(
                    "eta_s is not a strictly monotone transform of eta: cells "
                    f"{i} (eta={eta[i]}, eta_s={eta_s[i]}) and "
                    f"{j} (eta={eta[j]}, eta_s={eta_s[j]})"
                )


@dataclass(frozen=True)
class MelaOptimalityReport:
    """Comparison of the substitute-metric and real-metric frontiers.

    When E[S|x] is a strictly monotone transform of P(Y=1|x), both systems
    rank cells identically, so the classifiers achieving either frontier
    coincide. ``spu_only`` / ``real_only`` list witness bitmasks on exactly
    one frontier (empty on pass).
    """

    passed: bool
    n_spu_frontier: int
    n_real_frontier: int
    spu_only: tuple[int, ...]
    real_only: tuple[int, ...]
    threshold_family_on_both: bool

    def to_dict(self):
        return {
            "passed": self.passed,
            "n_spu_frontier": self.n_spu_frontier,
            "n_real_frontier": self.n_real_frontier,
            "spu_only": [int(m) for m in self.spu_only],
            "real_only": [int(m) for m in self.real_only],
            "threshold_family_on_both": self.threshold_family_on_both,
        }


def verify_mela_optimality(problem: DiscreteProblem) -> MelaOptimalityReport:
    """Check that the substitute and real frontiers are achieved by the same
    classifiers (requires eta_s strictly comonotone with eta)."""
    _check_strictly_comonotone(problem)
    spu = exhaustive_frontier(problem, "spu")
    real = exhaustive_frontier(problem, "real")
    spu_set = frozenset(int(c) for c in spu.frontier_masks)
    real_set = frozenset(int(c) for c in real.frontier_masks)
    family = set(threshold_masks(problem.eta_s))
    return MelaOptimalityReport(
        passed=spu_set == real_set,
        n_spu_frontier=len(spu_set),
        n_real_frontier=len(real_set),
        spu_only=tuple(sorted(spu_set - real_set)),
        real_only=tuple(sorted(real_set - spu_set)),
        threshold_family_on_both=family <= spu_set and family <= real_set,
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
    if width <= 0.0:
        raise ValueError("width must be positive")
    order = np.argsort(problem.eta)
    eta = problem.eta[order]
    cum = np.concatenate([[0.0], np.cumsum(problem.masses[order])])
    best = 0.0
    for a in np.concatenate([eta, eta - width]):
        lo = np.searchsorted(eta, a, side="left")
        hi = np.searchsorted(eta, a + width, side="right")
        best = max(best, cum[hi] - cum[lo])
    return float(best / width)


def assumption4_violations(
    problem: DiscreteProblem, epsilon: float, c_h: float
) -> list[tuple[int, int]]:
    """Cell pairs incompatible with any link of slope >= c_h within epsilon.

    A monotone link h with h' >= c_h and |eta_s - h(eta)| <= epsilon forces
    ``c_h * (eta_i - eta_j) <= eta_s_i - eta_s_j + 2 * epsilon`` whenever
    eta_i > eta_j; pairs breaking that are returned.
    """
    eta, eta_s = problem.eta, problem.eta_s
    bad = []
    m = problem.n_cells
    for i in range(m):
        for j in range(m):
            if eta[i] > eta[j]:
                if c_h * (eta[i] - eta[j]) > eta_s[i] - eta_s[j] + 2.0 * epsilon + 1e-12:
                    bad.append((i, j))
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

    def to_dict(self):
        d = {
            "epsilon": self.epsilon,
            "c_h": self.c_h,
            "m_const": self.m_const,
            "class_prior": self.class_prior,
            "point_bound": self.point_bound,
            "auc_bound": self.auc_bound,
            "max_tpr_deficit": self.max_tpr_deficit,
            "max_fpr_excess": self.max_fpr_excess,
            "max_point_gap": self.max_point_gap,
            "auc_real_optimal": self.auc_real_optimal,
            "auc_spu_ranking": self.auc_spu_ranking,
            "auc_gap": self.auc_gap,
            "matches": [[int(a), int(b)] for a, b in self.matches],
            "density_bound_effective": self.density_bound_effective,
            "density_ok": self.density_ok,
            "link_violations": [[int(a), int(b)] for a, b in self.link_violations],
            "mass_matching_ok": self.mass_matching_ok,
            "passed": self.passed,
        }
        return d


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
    """
    if c_h <= 0.0:
        raise ValueError("c_h must be positive")
    if epsilon < 0.0:
        raise ValueError("epsilon must be non-negative")
    pi = problem.class_prior
    point_bound = 4.0 * m_const * epsilon**2 / (pi * c_h**2)
    auc_bound = 2.0 * point_bound

    link_bad = assumption4_violations(problem, epsilon, c_h)
    if epsilon > 0.0:
        m_eff = slice_density_bound(problem, 2.0 * epsilon / c_h)
    else:
        m_eff = 0.0
    density_ok = m_eff <= m_const + 1e-9

    fprs_real, tprs_real = enumerate_points(problem, "real")
    real_frontier = exhaustive_frontier(problem, "real")
    spu_frontier = exhaustive_frontier(problem, "spu")
    spu_masks = spu_frontier.frontier_masks
    spu_real_fpr = fprs_real[spu_masks]
    spu_real_tpr = tprs_real[spu_masks]
    spu_pred_mass = np.array(
        [
            float(
                problem.masses[
                    [(int(c) >> j) & 1 == 1 for j in range(problem.n_cells)]
                ].sum()
            )
            for c in spu_masks
        ]
    )

    max_deficit = 0.0
    max_excess = 0.0
    max_gap = 0.0
    matches = []
    mass_matching_ok = True
    for (f_r, t_r), vmask in zip(real_frontier.points, real_frontier.vertex_masks):
        deficits = np.maximum(t_r - spu_real_tpr, 0.0)
        excesses = np.maximum(spu_real_fpr - f_r, 0.0)
        worst = np.maximum(deficits, excesses)
        vertex_mass = float(
            problem.masses[
                [(vmask >> j) & 1 == 1 for j in range(problem.n_cells)]
            ].sum()
        )
        mass_gap = np.abs(spu_pred_mass - vertex_mass)
        if mass_gap.min() > 1e-12:
            mass_matching_ok = False
        # prefer the equal-predicted-mass matching, break ties by gap
        rank = np.lexsort((worst, mass_gap))
        best = rank[0]
        if worst[best] > worst.min() + 1e-15:
            best = int(np.argmin(worst))
        matches.append((int(vmask), int(spu_masks[best])))
        max_deficit = max(max_deficit, float(deficits[best]))
        max_excess = max(max_excess, float(excesses[best]))
        max_gap = max(max_gap, float(worst[best]))

    spu_prefix = threshold_masks(problem.eta_s)
    spu_curve = np.column_stack(
        [fprs_real[spu_prefix], tprs_real[spu_prefix]]
    )
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
