"""The lockstep Nelder-Mead searches against one scipy run per start.

The references below are the inner ascent, the d_n objective and the outer
search as the package wrote them before its lockstep version: one
``scipy.optimize.minimize(method="Nelder-Mead")`` run per start and one
norm per ratio, each from ``linalg.top_singular`` of that one matrix.  Every
comparison is exact (``==``), because the lockstep code performs the same
float operations in the same order.
"""

import numpy as np
import pytest
import scipy.optimize

from osclass import linalg, opsys, osdist
from osclass.linalg import top_singular
from osclass.opsys import build_system
from osclass.osdist import (COND_BOUND, LinearMapCoords, _nelder_mead, amplified_map_norm,
                            dgh_weighted, dn_search)

# --- one scipy run per start ----------------------------------------------------


def norm(a):
    return float(top_singular(a[None])[0])


def ref_ratio_function(x, y, u, level):
    def ratio(cflat):
        c = cflat.reshape(level, level, x.dim)
        denom_mat = x.assemble(c)
        denom = norm(denom_mat) if np.any(denom_mat) else 0.0
        if denom < 1e-14:
            return 0.0
        return norm(y.assemble(c @ u.T)) / denom

    return ratio


def real_to_complex(v):
    h = v.size // 2
    return v[:h] + 1j * v[h:]


def complex_to_real(c):
    f = c.reshape(-1)
    return np.concatenate([f.real, f.imag])


def ref_amplified_map_norm(x, y, u, level=1, starts=16, iters=200, seed=0):
    um = np.asarray(u, dtype=np.complex128)
    ratio = ref_ratio_function(x, y, um, level)
    nn = x.dim
    best = 0.0

    def neg(v):
        nonlocal best
        r = ratio(real_to_complex(v).reshape(level, level, nn))
        if r > best:
            best = r
        return -r

    start_points = [complex_to_real(np.eye(level)[:, :, None] * x.unit_coeffs)]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(max(0, starts - 1)):
        start_points.append(rng.standard_normal(2 * level * level * nn))
    for sp in start_points:
        if iters > 0:
            scipy.optimize.minimize(neg, sp, method="Nelder-Mead",
                                    options={"maxfev": iters, "xatol": 1e-10, "fatol": 1e-12})
        else:
            neg(sp)
    return best


def ref_objective(x, y, level, inner_starts, inner_iters, seed):
    def f(v):
        um = real_to_complex(v).reshape(x.dim, x.dim)
        u = LinearMapCoords(um)
        if not np.all(np.isfinite(um.real)) or not np.all(np.isfinite(um.imag)) \
                or u.condition() > COND_BOUND:
            return 1e6
        uinv = np.linalg.inv(um)
        unit_gap = norm(y.assemble(um @ x.unit_coeffs) - y.unit())
        fwd = ref_amplified_map_norm(x, y, um, level, inner_starts, inner_iters, seed)
        bwd = ref_amplified_map_norm(y, x, uinv, level, inner_starts, inner_iters, seed)
        terms = [unit_gap]
        terms.append(np.log(fwd) if fwd > 0 else -np.inf)
        terms.append(np.log(bwd) if bwd > 0 else -np.inf)
        return float(max(terms))

    return f


def ref_dn_search(x, y, level=1, restarts=32, seed=0, outer_iters=120,
                  inner_starts=2, inner_iters=40, warm_starts=()):
    f = ref_objective(x, y, level, inner_starts, inner_iters, seed)
    nn = x.dim
    eye = complex_to_real(np.eye(nn, dtype=np.complex128))
    starts = [eye] + [complex_to_real(np.asarray(w, dtype=np.complex128)) for w in warm_starts]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    while len(starts) < max(restarts, len(starts)):
        starts.append(eye + 0.7 * rng.standard_normal(2 * nn * nn))
    best_val = np.inf
    best_v = starts[0]
    for sp in starts:
        v0 = f(sp)
        if v0 < best_val:
            best_val, best_v = v0, sp
        if outer_iters > 0:
            res = scipy.optimize.minimize(f, sp, method="Nelder-Mead",
                                          options={"maxfev": outer_iters, "xatol": 1e-9,
                                                   "fatol": 1e-12})
            if res.fun < best_val:
                best_val, best_v = float(res.fun), res.x
    return {"level": level, "estimate": float(best_val),
            "map": real_to_complex(np.asarray(best_v)).reshape(nn, nn)}


# --- fixtures -------------------------------------------------------------------


def cnormal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def triple(seed, k):
    rng = np.random.default_rng([seed, k])
    x, y = build_system([cnormal(rng, k, k)]), build_system([cnormal(rng, k, k)])
    return x, y, np.eye(x.dim) + 0.4 * cnormal(rng, x.dim, x.dim)


def same_record(got, ref):
    assert got["estimate"] == ref["estimate"]
    assert np.array_equal(got["map"], ref["map"])


# --- inner ascent -----------------------------------------------------------------


@pytest.mark.parametrize("starts,iters", [(1, 0), (2, 40), (16, 200), (4, 3)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_inner_ascent_matches_scipy(level, starts, iters):
    # (4, 3): maxfev below N + 1 cuts the initial simplex short
    for k, seed in ((2, 0), (3, 1)):
        if starts == 16 and k == 3 and level == 3:
            continue  # the 3x3 level-3 ascent at full settings is the slowest; level 2 covers it
        x, y, u = triple(seed, k)
        for s in (0, 5):
            assert (amplified_map_norm(x, y, u, level, starts, iters, s)
                    == ref_amplified_map_norm(x, y, u, level, starts, iters, s))


def test_inner_ascent_accepts_map_coords():
    x, y, u = triple(2, 2)
    assert (amplified_map_norm(x, y, LinearMapCoords(u), 2, 3, 20)
            == ref_amplified_map_norm(x, y, u, 2, 3, 20))


def test_systems_of_different_ambient_sizes_match_scipy():
    rng = np.random.default_rng(13)
    x, y = build_system([cnormal(rng, 2, 2)]), build_system([cnormal(rng, 3, 3)])
    u = np.eye(3) + 0.4 * cnormal(rng, 3, 3)
    for level in (1, 2):
        assert (amplified_map_norm(x, y, u, level, 3, 30)
                == ref_amplified_map_norm(x, y, u, level, 3, 30))
    kw = dict(outer_iters=15, inner_starts=2, inner_iters=8)
    same_record(dn_search(x, y, 1, 2, 0, **kw), ref_dn_search(x, y, 1, 2, 0, **kw))


# --- outer search -----------------------------------------------------------------


@pytest.mark.parametrize("restarts", [1, 2, 4])
@pytest.mark.parametrize("warm", [False, True])
def test_dn_search_matches_scipy(restarts, warm):
    x, y, _ = triple(3, 2)
    kw = dict(outer_iters=25, inner_starts=2, inner_iters=10)
    for level, seed in ((1, 0), (2, 4)):
        warm_starts = [triple(9, 2)[2]] if warm else ()
        same_record(dn_search(x, y, level, restarts, seed, warm_starts=warm_starts, **kw),
                    ref_dn_search(x, y, level, restarts, seed, warm_starts=warm_starts, **kw))


def test_dn_search_budget_edges_match_scipy():
    # no outer iterations; an outer budget below N + 1; inner ascents that only
    # evaluate their starts; a 3x3 pair
    x, y, _ = triple(5, 2)
    for kw in (dict(outer_iters=0, inner_starts=2, inner_iters=5),
               dict(outer_iters=4, inner_starts=1, inner_iters=6),
               dict(outer_iters=12, inner_starts=3, inner_iters=0)):
        same_record(dn_search(x, y, 1, 3, 1, **kw), ref_dn_search(x, y, 1, 3, 1, **kw))
    x, y, _ = triple(6, 3)
    kw = dict(outer_iters=22, inner_starts=1, inner_iters=8)
    same_record(dn_search(x, y, 1, 2, 2, **kw), ref_dn_search(x, y, 1, 2, 2, **kw))


def test_maps_split_into_batches_match_scipy(monkeypatch):
    # two maps per lockstep batch of inner ascents, with a remainder batch
    monkeypatch.setattr(osdist, "_BATCH_VERTICES", 2 * 2 * 2 * 19)
    x, y, _ = triple(10, 2)
    kw = dict(outer_iters=24, inner_starts=2, inner_iters=6)
    same_record(dn_search(x, y, 1, 3, 2, **kw), ref_dn_search(x, y, 1, 3, 2, **kw))


def kernel_spy(monkeypatch):
    """Record every stack the inner ascents give the norm kernel
    (``opsys._top_singular``, called by ``opsys._norms``) as a pair: whether ``_ratios`` made the call,
    and the stack.  The other calls are the plan's start denominators."""
    calls, inside, ratios, kernel = [], [], osdist._ratios, opsys._top_singular

    def spy_ratios(*args):
        inside.append(True)
        try:
            return ratios(*args)
        finally:
            inside.pop()

    def spy(stack):
        calls.append((bool(inside), stack.copy()))
        return kernel(stack)

    monkeypatch.setattr(osdist, "_ratios", spy_ratios)
    monkeypatch.setattr(opsys, "_top_singular", spy)
    return calls


def test_norms_split_into_chunks_match_scipy(monkeypatch):
    # phases split into chunks of 1, 2, 3 and 5 elements, each chunk taking
    # the same slice of the X and the Y side: forward rows only (the inner
    # ascent) and forward with backward rows (the d_n objective), at levels 1
    # and 2, for two 2x2 systems (one stack per chunk) and for a 2x2 and a 3x3
    # system (one stack per matrix size and chunk)
    calls = kernel_spy(monkeypatch)
    rng = np.random.default_rng(14)
    mixed = (build_system([cnormal(rng, 2, 2)]), build_system([cnormal(rng, 3, 3)]),
             np.eye(3) + 0.4 * cnormal(rng, 3, 3))
    kw = dict(outer_iters=12, inner_starts=2, inner_iters=6)
    for x, y, u in (triple(11, 2), mixed):
        pair_entries = x.ambient_dim ** 2 + y.ambient_dim ** 2
        for per in (1, 2, 3, 5):
            widest = 2 * per if x.ambient_dim == y.ambient_dim else per
            for level in (1, 2):
                monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2 * per * level * level * pair_entries)
                calls.clear()
                assert (amplified_map_norm(x, y, u, level, 3, 20)
                        == ref_amplified_map_norm(x, y, u, level, 3, 20))
                assert max(len(stack) for _, stack in calls) == widest
                calls.clear()
                same_record(dn_search(x, y, level, 2, 1, **kw),
                            ref_dn_search(x, y, level, 2, 1, **kw))
                assert max(len(stack) for _, stack in calls) == widest


def scipy_initial_simplex(x0):
    """The vertices scipy's Nelder-Mead starts from at ``x0``."""
    sim = [x0.copy()]
    for k in range(x0.size):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    return sim


def test_start_denominators_take_one_kernel_pass_per_search(monkeypatch):
    # every map's inner ascents start from the same template, so the kernel
    # sees each initial-simplex denominator once per search, as the plan is
    # built, and each ascent's first phase gives it numerators only
    calls = kernel_spy(monkeypatch)
    ascents, ratios = osdist._ascents, osdist._ratios
    maps, points = [], []

    def spy_ascents(plan, fwd, bwd):
        maps.append(len(fwd) + len(bwd))
        return ascents(plan, fwd, bwd)

    def spy_ratios(plan, c, *rest):
        points.append(len(c))
        return ratios(plan, c, *rest)

    monkeypatch.setattr(osdist, "_ascents", spy_ascents)
    monkeypatch.setattr(osdist, "_ratios", spy_ratios)
    x, y, _ = triple(15, 2)
    kw = dict(outer_iters=25, inner_starts=2, inner_iters=10)
    for level, restarts in ((1, 2), (2, 3)):
        for log in (calls, maps, points):
            log.clear()
        same_record(dn_search(x, y, level, restarts, 1, **kw),
                    ref_dn_search(x, y, level, restarts, 1, **kw))
        rng = np.random.default_rng(np.random.SeedSequence(1))
        noise = [rng.standard_normal(2 * level * level * x.dim)
                 for _ in range(kw["inner_starts"] - 1)]
        first = min(2 * level * level * x.dim + 1, kw["inner_iters"])
        want = [norm(s.assemble(real_to_complex(v).reshape(level, level, x.dim)))
                for s in (x, y)
                for x0 in [complex_to_real(np.eye(level)[:, :, None] * s.unit_coeffs), *noise]
                for v in scipy_initial_simplex(x0)[:first]]
        built = [stack for inside, stack in calls if not inside]
        got = np.concatenate([top_singular(stack) for stack in built])
        assert np.array_equal(np.sort(got), np.sort(want))
        # past the plan, every ratio takes a numerator, and all but the first
        # phase's a denominator too
        seen = sum(len(stack) for inside, stack in calls if inside)
        assert len(maps) > 1 and seen == 2 * sum(points) - sum(maps) * kw["inner_starts"] * first


def test_singular_starts_score_the_penalty():
    # a zero warm start fails the condition check and scores 1e6 without inner work
    x, y, _ = triple(7, 2)
    kw = dict(outer_iters=10, inner_starts=1, inner_iters=4)
    warm = [np.zeros((x.dim, x.dim))]
    same_record(dn_search(x, y, 1, 2, 0, warm_starts=warm, **kw),
                ref_dn_search(x, y, 1, 2, 0, warm_starts=warm, **kw))


def test_dgh_weighted_matches_scipy():
    x, y, _ = triple(8, 2)
    kw = dict(outer_iters=15, inner_starts=2, inner_iters=8)
    rep = dgh_weighted(x, y, n_max=2, restarts=2, seed=3, **kw)
    warm, total = [], 0.0
    for rec, level in zip(rep.per_level, (1, 2)):
        ref = ref_dn_search(x, y, level, 2, 3 + level - 1, warm_starts=warm, **kw)
        same_record(rec, ref)
        warm = [ref["map"]]
        total += 2.0 ** -level * ref["estimate"]
    assert rep.weighted == total


# --- the lockstep minimiser on plain functions ---------------------------------------


def bumpy(v):
    # a nonsmooth, oscillating surface: Nelder-Mead shrinks often on it
    return float(np.abs(v).sum() + 0.3 * np.sin(7.0 * v).sum())


def quadratic(v):
    return float(((v - 0.25) ** 2 * np.arange(1, v.size + 1)).sum())


def holes(v):
    # NaN and inf on parts of the plane exercise scipy's comparisons as written
    r = float(np.abs(v).sum())
    if r > 3.0:
        return np.inf
    if 1.0 < r < 1.1:
        return np.nan
    return r * r - v[0]


def plateau(v):
    # piecewise constant: many comparisons of a simplex's values are exact
    # ties, so the order argsort gives tied values decides the iterates
    return float(np.floor(16.0 * np.abs(v - 0.3).sum()))


# 19 vertices: past 16, argsort no longer sorts a row by insertion, so the
# order it gives tied values is its own
WIDE = [np.random.default_rng(18).standard_normal(18), np.linspace(-1.0, 1.0, 18)]


def lockstep(fun, x0, maxfev, xatol=1e-10, fatol=1e-12):
    nfev = np.zeros(len(x0), int)

    def batch(points, owner):
        assert np.all(np.diff(owner) >= 0)
        np.add.at(nfev, owner, 1)
        return np.array([fun(p) for p in points])

    x, fval, f0 = _nelder_mead(batch, np.asarray(x0, float), maxfev, xatol, fatol)
    return x, fval, f0, nfev


@pytest.mark.parametrize("fun", [bumpy, quadratic, holes, plateau])
def test_lockstep_matches_scipy_on_plain_functions(fun):
    rng = np.random.default_rng(12)
    x0 = [rng.standard_normal(3), np.zeros(3), rng.standard_normal(3) * 0.2,
          np.array([0.5, 0.0, -0.5])]
    stale = False
    for starts in (x0, WIDE):
        for maxfev in [*range(1, 40), 60, 150, 2000]:
            x, fval, f0, nfev = lockstep(fun, starts, maxfev)
            for i, start in enumerate(starts):
                # scipy's own convergence test takes inf - inf once a simplex
                # of infinite values (holes, from a wide start) has collapsed
                with np.errstate(invalid="ignore"):
                    res = scipy.optimize.minimize(fun, start, method="Nelder-Mead",
                                                  options={"maxfev": maxfev, "xatol": 1e-10,
                                                           "fatol": 1e-12})
                assert np.array_equal(x[i], res.x)
                assert fval[i] == res.fun or (np.isnan(fval[i]) and np.isnan(res.fun))
                assert nfev[i] == res.nfev
                assert f0[i] == fun(start) or np.isnan(f0[i])
                sim, fsim = res.final_simplex
                # a shrink cut short by the budget keeps a moved vertex with its old value
                stale |= any(fv != fun(v) for v, fv in zip(sim, fsim) if np.isfinite(fv))
    if fun is bumpy:
        assert stale


def test_lockstep_stops_on_convergence_like_scipy():
    x0 = [np.array([1.0, -1.0]), np.array([0.3, 0.2]), np.array([2.0, 0.0])]
    for xatol, fatol in ((1e-10, 1e-12), (1e-4, 1e-4)):
        x, fval, _, nfev = lockstep(quadratic, x0, 5000, xatol, fatol)
        for i, start in enumerate(x0):
            res = scipy.optimize.minimize(quadratic, start, method="Nelder-Mead",
                                          options={"maxfev": 5000, "xatol": xatol,
                                                   "fatol": fatol})
            assert res.nfev < 5000 and res.status == 0
            assert np.array_equal(x[i], res.x) and fval[i] == res.fun
            assert nfev[i] == res.nfev


def test_lockstep_stops_on_tied_values_like_scipy():
    # a loose xatol leaves the test to the values: on a plateau most of a
    # simplex's values tie with the best, and only the last one's decides
    for xatol, fatol in ((1.0, 1e-12), (0.1, 0.5)):
        x, fval, _, nfev = lockstep(plateau, WIDE, 5000, xatol, fatol)
        for i, start in enumerate(WIDE):
            res = scipy.optimize.minimize(plateau, start, method="Nelder-Mead",
                                          options={"maxfev": 5000, "xatol": xatol,
                                                   "fatol": fatol})
            assert res.nfev < 5000 and res.status == 0
            assert np.array_equal(x[i], res.x) and fval[i] == res.fun
            assert nfev[i] == res.nfev


def test_osdist_does_not_use_scipy_optimize():
    assert "scipy" not in vars(osdist)
