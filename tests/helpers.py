"""Independent brute-force oracles for the test suite.

Everything here is deliberately written with plain Python loops and no
shared code with the library, so agreements are genuine cross-checks.
"""
import math

import numpy as np


def brute_ball_members(dist, center, r):
    return [j for j in range(dist.shape[0]) if dist[center][j] < r]


def brute_ball_mass(dist, weight, center, r):
    return sum(weight[j] for j in brute_ball_members(dist, center, r))


def brute_a0(dist):
    n = dist.shape[0]
    best = 1.0
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                den = dist[x][z] + dist[z][y]
                if den > 0:
                    best = max(best, dist[x][y] / den)
    return best


def brute_a0_witness(dist):
    """(A0, (x, y, z)): the first pair (x, y) in row-major order attaining
    the largest ratio, and the first z of least d(x, z) + d(z, y) for it;
    the witness is None when A0 = 1."""
    d = np.asarray(dist, dtype=float).tolist()
    n = len(d)
    best, pair = 1.0, None
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            for z in range(n):
                if z == x or z == y:
                    continue
                den = d[x][z] + d[z][y]
                if den > 0 and d[x][y] / den > best:
                    best, pair = d[x][y] / den, (x, y)
    if pair is None:
        return best, None
    x, y = pair
    sums = [d[x][z] + d[z][y] for z in range(n)]
    return best, (x, y, sums.index(min(sums)))


def brute_table_violations(dist, cap=20):
    """The structural violations of a distance table, each kind found in
    row-major order and kept to its first ``cap``, joined in the order
    nonnegativity, symmetry, nonzero diagonal, off-diagonal zero and cut
    to ``cap``. An unordered pair is listed once, where it is first met."""
    d = np.asarray(dist, dtype=float).tolist()
    n = len(d)
    negative, unequal, diagonal, zero = [], [], [], []
    seen_unequal, seen_zero = set(), set()
    for i in range(n):
        for j in range(n):
            if d[i][j] < 0 and len(negative) < cap:
                negative.append({"kind": "nonnegativity", "pair": [i, j], "value": d[i][j]})
            if d[i][j] != d[j][i] and frozenset((i, j)) not in seen_unequal:
                seen_unequal.add(frozenset((i, j)))
                if len(unequal) < cap:
                    unequal.append({"kind": "symmetry", "pair": [i, j],
                                    "values": [d[i][j], d[j][i]]})
            if i != j and d[i][j] == 0 and frozenset((i, j)) not in seen_zero:
                seen_zero.add(frozenset((i, j)))
                if len(zero) < cap:
                    zero.append({"kind": "identity", "pair": [i, j], "value": 0.0})
    for i in range(n):
        if d[i][i] != 0 and len(diagonal) < cap:
            diagonal.append({"kind": "identity", "pair": [i, i], "value": d[i][i]})
    return (negative + unequal + diagonal + zero)[:cap]


def brute_besov(entries, masses, delta, s, p, q, level_ok):
    """entries: {(k, alpha): value}; masses: {(k, alpha): mass}."""
    levels = sorted({k for k, _ in entries})
    outer = []
    for k in levels:
        if not level_ok(k):
            continue
        terms = []
        for (kk, alpha), lam in entries.items():
            if kk != k or lam == 0.0:
                continue
            m = masses[(kk, alpha)]
            if math.isinf(p):
                terms.append(m ** (-0.5) * abs(lam))
            else:
                terms.append((m ** (1.0 / p - 0.5) * abs(lam)) ** p)
        if not terms:
            continue
        inner = max(terms) if math.isinf(p) else sum(terms) ** (1.0 / p)
        outer.append(delta ** (-k * s) * inner)
    if not outer:
        return 0.0
    if math.isinf(q):
        return max(outer)
    return sum(v**q for v in outer) ** (1.0 / q)


def brute_tl_function(entries, masses, members, n, delta, s, q, level_ok):
    """The pointwise l^q aggregate g of a Triebel-Lizorkin norm, as a list
    over the n points; members: {(k, alpha): iterable of point ids}."""
    if math.isinf(q):
        g = [0.0] * n
        for (k, alpha), lam in entries.items():
            if not level_ok(k) or lam == 0.0:
                continue
            v = delta ** (-k * s) * masses[(k, alpha)] ** (-0.5) * abs(lam)
            for x in members[(k, alpha)]:
                g[x] = max(g[x], v)
        return g
    acc = [0.0] * n
    for (k, alpha), lam in entries.items():
        if not level_ok(k) or lam == 0.0:
            continue
        v = delta ** (-k * s * q) * (masses[(k, alpha)] ** (-0.5) * abs(lam)) ** q
        for x in members[(k, alpha)]:
            acc[x] += v
    return [a ** (1.0 / q) for a in acc]


def brute_tl(entries, masses, members, weights, n, delta, s, p, q, level_ok):
    g = brute_tl_function(entries, masses, members, n, delta, s, q, level_ok)
    total = sum(weights[i] * g[i] ** p for i in range(n) if g[i] > 0)
    return total ** (1.0 / p)


def dense_tl_function(entries, masses, members, n, delta, s, q, level_ok):
    """The pointwise l^q aggregate g of a Triebel-Lizorkin norm as one dense
    row over all n points: each entry's term (Python scalar powers) is
    scatter-added onto its members by one np.bincount, entry after entry
    (a pointwise maximum for q = inf), then acc ** (1/q) as an array."""
    kept = [(key, lam) for key, lam in entries.items() if level_ok(key[0]) and lam != 0.0]
    points = [np.asarray(members[key], dtype=int) for key, _ in kept]
    if math.isinf(q):
        acc = np.zeros(n)
        for ((k, alpha), lam), at in zip(kept, points):
            v = delta ** (-k * s) * masses[(k, alpha)] ** (-0.5) * abs(lam)
            acc[at] = np.maximum(acc[at], v)
        return acc
    terms = [delta ** (-k * s * q) * (masses[(k, alpha)] ** (-0.5) * abs(lam)) ** q
             for (k, alpha), lam in kept]
    acc = np.bincount(np.concatenate([np.zeros(0, dtype=int)] + points),
                      weights=np.repeat(np.array(terms, dtype=float), [a.size for a in points]),
                      minlength=n)
    return acc ** (1.0 / q)


def dense_tl_norm(entries, masses, members, weights, n, delta, s, p, q, level_ok):
    """The Triebel-Lizorkin norm from the dense row of ``dense_tl_function``:
    weight * g ** p as arrays over every point, math.fsum of the whole row,
    then Python's ** (1/p)."""
    g = dense_tl_function(entries, masses, members, n, delta, s, q, level_ok)
    return math.fsum((np.asarray(weights) * g ** p).tolist()) ** (1.0 / p)


def segment_besov_norm(entries, masses, delta, s, p, q, level_ok):
    """The Besov norm of one sequence, one segment at a time: Python's
    m ** (1/p - 1/2) and d ** (-ks), numpy's ** p on the terms of one
    segment, math.fsum of that segment and Python's ** (1/p), whatever the
    segment's length and whatever p is; p = inf and q = inf take maxima."""
    expo = (0.0 if math.isinf(p) else 1.0 / p) - 0.5
    kept = [(k, alpha, abs(lam)) for (k, alpha), lam in entries.items()
            if level_ok(k) and lam != 0.0]
    per_level = [delta ** (-k * s) * _segment_norm(
        [masses[(kk, alpha)] ** expo * x for kk, alpha, x in kept if kk == k], p)
        for k in sorted({k for k, _, _ in kept})]
    return _segment_norm(per_level, q) if per_level else 0.0


def _segment_norm(terms, p):
    if math.isinf(p):
        return max(terms)
    return math.fsum((np.array(terms, dtype=float) ** p).tolist()) ** (1.0 / p)


def midpoint_layer_cake(g, weights, p, n_nodes):
    """(p * integral_0^max g of t^{p-1} mu({g > t}) dt)^{1/p} by the midpoint
    rule on n_nodes nodes (midpoints keep t^{p-1} finite): an approximate
    L^p norm of g that shares nothing with the exact level-set sum."""
    above = sorted((v, w) for v, w in zip(g, weights) if v > 0)
    if not above:
        return 0.0
    dt = above[-1][0] / n_nodes
    mass = sum(w for _, w in above)
    terms, i = [], 0
    for node in range(n_nodes):
        t = (node + 0.5) * dt
        while i < len(above) and above[i][0] <= t:      # mu({g > t})
            mass -= above[i][1]
            i += 1
        terms.append(t ** (p - 1) * mass * dt)
    return (p * math.fsum(terms)) ** (1.0 / p)


def delta_sequence_norm(system, k0, alpha0, params):
    """Closed form for the one-coefficient sequence at cube (k0, alpha0):
    delta^{-k0 s} * mass^{1/p - 1/2}, 0 outside the variant window. The
    Besov and Triebel-Lizorkin values coincide (the indicator integrates to
    the cube mass)."""
    if params.variant != "homogeneous" and k0 < 0:
        return 0.0
    inv_p = 0.0 if math.isinf(params.p) else 1.0 / params.p
    return params.delta ** (-k0 * params.s) * system.mass(k0, alpha0) ** (inv_p - 0.5)


def delta_ratio(cubes, k0, alpha0, params):
    """target/source norm ratio of the one-coefficient sequence at (k0, a0),
    in closed form: delta^{-k0 (s1 - s2)} * mass^{1/p1 - 1/p2}."""
    inv_p1 = 0.0 if math.isinf(params.target.p) else 1.0 / params.target.p
    inv_p2 = 0.0 if math.isinf(params.source.p) else 1.0 / params.source.p
    return (cubes.delta ** (-k0 * (params.target.s - params.source.s))
            * cubes.mass(k0, alpha0) ** (inv_p1 - inv_p2))


def brute_maximal(dist, weight, f):
    """M f by scanning a radius just above every pairwise distance."""
    n = dist.shape[0]
    out = []
    for x in range(n):
        radii = sorted(set(dist[x])) + [dist[x].max() + 1.0]
        best = 0.0
        for r0 in radii:
            r = r0 * (1 + 1e-12) + 1e-300
            members = brute_ball_members(dist, x, r)
            if not members:
                continue
            num = sum(weight[j] * abs(f[j]) for j in members)
            den = sum(weight[j] for j in members)
            best = max(best, num / den)
        out.append(best)
    return np.array(out)


def fs_vector_ratio(mf, f, weight, p, q):
    """(lhs, rhs, ratio) of the vector-valued (Fefferman-Stein) maximal
    inequality: lhs = || (sum_k (M f_k)^q)^{1/q} ||_p for the (m, n) stack
    ``mf`` of the M f_k, against the same aggregate of the |f_k| of the
    stack ``f``; L^p of the point weights."""
    def aggregate(g):
        g = np.abs(np.asarray(g, dtype=float))
        return g.max(axis=0) if math.isinf(q) else (g ** q).sum(axis=0) ** (1.0 / q)

    def norm(g):
        if math.isinf(p):
            return float(g.max())
        return math.fsum((weight * g ** p).tolist()) ** (1.0 / p)

    lhs, rhs = norm(aggregate(mf)), norm(aggregate(f))
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    return lhs, rhs, ratio


def brute_reverse_doubling(dist, weight, kappa, n_radii=6, n_lambdas=6):
    """(c, (x, r, lam)): the least mu(B(x, lam r)) / (lam^kappa mu(B(x, r)))
    over radii r from just above the least positive distance to half the
    diameter and n_lambdas dilations 1 <= lam < diam / (2r) per radius,
    with the first (r, x, lam) in loop order that attains it; (inf, None)
    when no radius admits a dilation. Masses are summed point by point, so
    the weights should add exactly in any order."""
    d = np.asarray(dist, dtype=float)
    diam = float(d.max())
    r_lo = float(d[d > 0].min())
    r_hi = diam / 2 if diam / 2 > r_lo else r_lo * (1 + 1e-9)
    best, worst = math.inf, None
    for r in np.geomspace(r_lo * (1 + 1e-12), r_hi, n_radii):
        if diam / (2 * r) <= 1.0:
            continue
        lams = np.geomspace(1.0, diam / (2 * r) * (1 - 1e-12), n_lambdas)
        scale = lams ** kappa
        for x in range(d.shape[0]):
            base = brute_ball_mass(d, weight, x, r)
            for lam, power in zip(lams, scale):
                ratio = brute_ball_mass(d, weight, x, lam * r) / (power * base)
                if ratio < best:
                    best, worst = float(ratio), (x, float(r), float(lam))
    return best, worst


def unit_spaced_grid(n, weights=None):
    """1-D grid at integer positions with unit weights (the hand-count fixture)."""
    from homspace.space import FiniteHomSpace

    coords = np.arange(float(n))[:, None]
    dist = np.abs(coords[:, None, 0] - coords[None, :, 0])
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    return FiniteHomSpace(dist=dist, weight=w, coords=coords)


def integer_grid_table(side, seed):
    """Distances of the side x side integer lattice in the plane and uneven
    seeded weights. Equal sums of squares give equal square roots, so every
    tie of the lattice is an exact tie of the table."""
    ij = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    diff = ij[:, None, :] - ij[None, :, :]
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    weight = np.random.default_rng(seed).uniform(0.2, 2.0, side * side)
    return dist, weight


def box_count_dimension(points, sizes):
    """Independent box-counting slope for a 1-D point set."""
    points = np.asarray(points, dtype=float).ravel()
    counts = []
    for size in sizes:
        boxes = {int(p / size) for p in points}
        counts.append(len(boxes))
    slope, _ = np.polyfit(np.log(1.0 / np.asarray(sizes)), np.log(counts), 1)
    return float(slope)


def brute_trend_probe(x, masses, consts, omega, exponent_tol=0.2, decay_frac=0.1):
    """(span, exponent, flagged) of one probe, fitted whatever its span: the
    OLS slope of log mass on log scale over the positive pairs (None with
    fewer than two or a single scale), the min/max of the positive finite
    constants (1.0 with fewer than two), and whether both prongs fire."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(masses, dtype=float)
    keep = (x > 0) & (y > 0)
    exponent = None
    if keep.sum() >= 2 and np.ptp(np.log(x[keep])) != 0.0:
        exponent = float(np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)[0])
    live = [float(c) for c in consts if c > 0 and math.isfinite(c)]
    span = min(live) / max(live) if len(live) >= 2 else 1.0
    flagged = exponent is not None and abs(exponent - omega) > exponent_tol and span <= decay_frac
    return span, exponent, flagged


def brute_lower_bound_witnesses(radii, masses, omega, exponent_tol=0.2, decay_frac=0.1):
    """(witnesses, probes) of a lower-bound check from its (centers x radii)
    mass table, one center at a time: the flagged centers as the report
    lists them, and every center's ``brute_trend_probe``."""
    witnesses, probes = [], []
    for center, row in enumerate(np.asarray(masses, dtype=float)):
        # a whole-row power, as numpy's array power may differ from the
        # scalar one in the last bit
        consts = (row / np.asarray(radii, dtype=float) ** omega).tolist()
        probe = brute_trend_probe(radii, row, consts, omega, exponent_tol, decay_frac)
        probes.append(probe)
        if probe[2]:
            worst = consts.index(min(consts))
            witnesses.append({"center": center, "exponent": probe[1], "c_min": min(consts),
                              "c_max": max(consts), "worst_radius": float(radii[worst])})
    return witnesses, probes


def brute_worst_chain(assignment, cube_mass, delta, resolved, omega,
                      exponent_tol=0.2, decay_frac=0.1):
    """(worst_chain, failing) of the ancestry-chain test: every cube of the
    finest resolved level walked up to the coarsest one level at a time and
    fitted; the worst chain is the first of least span."""
    levels = sorted(resolved, reverse=True)
    worst, failing = None, False
    for leaf in sorted(set(assignment[levels[0]].tolist())):
        masses, consts = [], []
        for k in levels:
            alpha = assignment[k][leaf]
            masses.append(float(cube_mass[k][alpha]))
            consts.append(cube_mass[k][alpha] / delta ** (k * omega))
        span, exponent, flagged = brute_trend_probe([delta ** k for k in levels], masses,
                                                    consts, omega, exponent_tol, decay_frac)
        failing = failing or flagged
        if worst is None or span < worst["span"]:
            worst = {"leaf": leaf, "levels": levels, "constants": [float(c) for c in consts],
                     "exponent": exponent, "span": span, "flagged": flagged}
    return worst, failing


def brute_single_child_runs(assignment, k_min, k_max):
    """(branching, best, witnesses, atomic_best) of the single-child-chain
    check: children and members counted by scanning the assignment, a run
    followed down through each lone child, cubes visited finest level first
    and by id; the witnesses are the first five multi-point cubes of the
    longest run, atomic_best the longest run of a single-point cube."""
    centers = {k: sorted(set(assignment[k].tolist())) for k in range(k_min, k_max + 1)}

    def children(k, alpha):
        return [b for b in centers[k + 1] if assignment[k][b] == alpha]

    def run(k, alpha):
        kids = children(k, alpha) if k < k_max else []
        return 1 + run(k + 1, kids[0]) if len(kids) == 1 else 0

    branching = {k: {a: len(children(k, a)) for a in centers[k]} for k in range(k_min, k_max)}
    best, witnesses, atomic_best = 0, [], 0
    for k in range(k_max, k_min - 1, -1):
        for alpha in centers[k]:
            length = run(k, alpha)
            if sum(1 for a in assignment[k] if a == alpha) == 1:
                atomic_best = max(atomic_best, length)
            elif length > best:
                best, witnesses = length, [{"level": k, "cube": alpha, "length": length}]
            elif length == best > 0 and len(witnesses) < 5:
                witnesses.append({"level": k, "cube": alpha, "length": length})
    return branching, best, witnesses, atomic_best


def brute_cube_axioms(dist, weight, centers, assignment, order, bounds, cube_mass, c1, C1, delta):
    """The violation list of the cube-axiom gate, one cube or one (level
    pair, fine center) at a time: partition per level and cube, nesting per
    level pair, the ball sandwich per cube (its members are its slice of
    ``order[k]``), then center containment per level pair and fine center.
    Every argument but the constants is a dict by level, as on a cube system."""
    levels = sorted(centers)
    total_mass = math.fsum(np.asarray(weight, dtype=float).tolist())
    violations = []

    def members(k, alpha):
        return order[k][bounds[k][alpha]:bounds[k][alpha + 1]]

    for k in levels:
        ids = centers[k]
        if not np.all(np.isin(assignment[k], ids)):
            violations.append({"axiom": "partition", "level": k,
                               "detail": "assignment to a non-center"})
        total = math.fsum(float(cube_mass[k][alpha]) for alpha in ids)
        if abs(total - total_mass) > 1e-12 * max(1.0, abs(total_mass)):
            violations.append({"axiom": "partition", "level": k,
                               "detail": f"mass sum {total!r} != total {total_mass!r}"})
        for alpha in ids:
            if members(k, alpha).size == 0:
                violations.append({"axiom": "partition", "level": k, "cube": int(alpha),
                                   "detail": "empty cube"})
            elif assignment[k][alpha] != alpha:
                violations.append({"axiom": "partition", "level": k, "cube": int(alpha),
                                   "detail": "center assigned outside its own cube"})

    pairs = [(k, ell) for i, k in enumerate(levels) for ell in levels[i + 1:]]
    for k, ell in pairs:
        for beta in sorted(set(assignment[ell].tolist())):
            labels = assignment[k][np.flatnonzero(assignment[ell] == beta)].tolist()
            j = next((j for j in range(len(labels) - 1) if labels[j] != labels[j + 1]), None)
            if j is not None:
                violations.append({"axiom": "nesting", "levels": [k, ell], "cube": beta,
                                   "detail": f"level-{ell} cube meets two level-{k} cubes "
                                             f"({labels[j]}, {labels[j + 1]})"})
                break

    for k in levels:
        for alpha in centers[k]:
            row = dist[alpha]
            inside = members(k, alpha)
            inner = np.flatnonzero(row < c1 * delta**k)
            stray = np.setdiff1d(inner, inside)
            if stray.size:
                violations.append({"axiom": "sandwich", "level": k, "cube": int(alpha),
                                   "detail": f"inner-ball point {int(stray[0])} outside the cube"})
            outside = inside[row[inside] >= C1 * delta**k]
            if outside.size:
                violations.append({"axiom": "sandwich", "level": k, "cube": int(alpha),
                                   "detail": f"member {int(outside[0])} outside the outer ball"})

    for k, ell in pairs:
        for beta in centers[ell]:
            alpha = assignment[k][beta]
            escape = (dist[beta] < C1 * delta**ell) & ~(dist[alpha] < C1 * delta**k)
            if escape.any():
                violations.append({"axiom": "center-containment", "levels": [k, ell],
                                   "cubes": [int(alpha), int(beta)],
                                   "detail": f"point {int(np.flatnonzero(escape)[0])} in the fine "
                                             "center ball escapes the coarse one"})
    return violations


def brute_batch_shape(labels, offsets, level, alpha, value, fresh_level, fresh_alpha,
                      cube_mass):
    """Problems with the layout of an ``embed-test`` scan batch, one sequence
    at a time: every fresh-cube delta first, in index order, with value 1;
    then draw i labelled single-level, multi-level or adversarial by i % 3.
    Each sequence holds distinct fresh cubes sorted by (level, cube id). A
    single-level draw holds min(6, size) cubes of one level, a multi-level
    draw min(3, size) cubes of every level, and an adversarial draw exactly
    the smallest-mass cube of every level (the first by id) with values of
    at least 0.5. ``cube_mass`` maps a level to its masses by cube id."""
    fresh = list(zip(np.asarray(fresh_level).tolist(), np.asarray(fresh_alpha).tolist()))
    by_level = {}
    for k, a in fresh:
        by_level.setdefault(k, []).append(a)
    smallest = {}
    for k, ids in by_level.items():
        masses = [float(cube_mass[k][a]) for a in ids]
        smallest[k] = ids[masses.index(min(masses))]
    problems = []
    offsets = np.asarray(offsets).tolist()
    if len(offsets) != len(labels) + 1 or offsets[0] != 0 or offsets[-1] != len(level):
        return [f"offsets {offsets[:3]}... do not frame {len(labels)} sequences"]
    for i, label in enumerate(labels):
        lo, hi = offsets[i], offsets[i + 1]
        keys = list(zip(np.asarray(level[lo:hi]).tolist(), np.asarray(alpha[lo:hi]).tolist()))
        vals = np.asarray(value[lo:hi]).tolist()
        where = f"sequence {i} ({label})"
        if not keys:
            problems.append(f"{where}: empty")
            continue
        if keys != sorted(set(keys)):
            problems.append(f"{where}: cubes repeat or are out of (level, id) order")
        if not set(keys) <= set(fresh):
            problems.append(f"{where}: a cube outside the fresh index")
            continue
        if i < len(fresh):
            k, a = fresh[i]
            if label != f"delta:{k}:{a}" or keys != [(k, a)] or vals != [1.0]:
                problems.append(f"{where}: not the delta at fresh cube {(k, a)}")
            continue
        draw = i - len(fresh)
        mode = ("single-level", "multi-level", "adversarial")[draw % 3]
        if label != f"{mode}:{draw}":
            problems.append(f"{where}: expected label {mode}:{draw}")
        per_level = {}
        for k, _ in keys:
            per_level[k] = per_level.get(k, 0) + 1
        if mode == "single-level":
            k = keys[0][0]
            if len(per_level) != 1 or per_level[k] != min(6, len(by_level[k])):
                problems.append(f"{where}: holds {per_level}, not min(6, size) cubes of one level")
        elif mode == "multi-level":
            want = {k: min(3, len(ids)) for k, ids in by_level.items()}
            if per_level != want:
                problems.append(f"{where}: holds {per_level}, not {want}")
        else:
            if keys != sorted(smallest.items()):
                problems.append(f"{where}: not the smallest-mass cube of every level")
            if not all(v >= 0.5 for v in vals):
                problems.append(f"{where}: a value below 0.5")
    return problems
