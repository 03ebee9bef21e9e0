"""First-return kernels, parabolic Green functions, classification."""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freewalk import (free_group, free_product, lazy_walk, measure_from_pairs, simple_walk,
                      FactorSpec)
from freewalk.groups import GroupElement
from freewalk.cli import build_group, build_measure, load_config
from freewalk.engine import pair_ids
from freewalk.green import (_field_arrays, pruned_return_weights, resolve_r, series_derivative,
                            spectral_radius)
from freewalk.parabolic import (
    EquadiffRow,
    ReturnKernel,
    _absorption,
    _factor_ball,
    _kernel_power_series,
    classify,
    equadiff_table,
    first_return_kernel,
    green_moments,
    kernel_power_series,
    kernel_radius,
    parabolic_green,
    same_green_residual,
)


@pytest.fixture(scope="module")
def zz():
    return free_group(2)


@pytest.fixture(scope="module")
def walk(zz):
    return simple_walk(zz)


@pytest.fixture(scope="module")
def lazy(zz):
    return lazy_walk(zz)


def brute_force_first_return(measure, k, r, max_len):
    """Oracle: enumerate all support paths up to max_len, keep first returns."""
    grp = measure.group
    sup = list(measure.entries.items())

    def in_h(g):
        return len(g.syllables) == 0 or (
            len(g.syllables) == 1 and g.syllables[0].factor == k
        )

    out = {}
    for n in range(1, max_len + 1):
        for combo in itertools.product(sup, repeat=n):
            g = grp.identity
            w = Fraction(1)
            ok = True
            for i, (elem, weight) in enumerate(combo):
                g = grp.multiply(g, elem)
                w *= weight
                if i < n - 1 and in_h(g):
                    ok = False
                    break
            if ok and in_h(g):
                out[g] = out.get(g, Fraction(0)) + w * Fraction(r).limit_denominator() ** n
    return out


def test_kernel_zero_at_r_zero(walk):
    kern = first_return_kernel(walk, 1, 0.0, horizon=8)
    assert kern.mass == 0.0 and not kern.nu


def test_kernel_single_step_entry(zz, walk):
    # p_{1,r}(e, a) = r/4 exactly at any horizon: paths leaving through the
    # b-branch must cross e in the subgroup before reaching a
    r = 0.5
    for horizon in (1, 4, 8):
        kern = first_return_kernel(walk, 1, r, horizon=horizon, exploration_radius=10)
        a = zz.gen("a")
        assert abs(kern.entry(zz, zz.identity, a) - r / 4) < 1e-15


def test_kernel_two_step_return(zz, walk):
    # first return to <a> at e after excursions e->b->e and e->b^-1->e
    r = 0.5
    kern = first_return_kernel(walk, 1, r, horizon=2, exploration_radius=6)
    assert abs(kern.entry(zz, zz.identity, zz.identity) - r**2 / 8) < 1e-15


def test_kernel_matches_brute_force(zz, walk):
    r = 0.5
    kern = first_return_kernel(walk, 1, r, horizon=6, exploration_radius=8)
    oracle = brute_force_first_return(walk, 1, r, 6)
    for g, w in oracle.items():
        assert abs(kern.nu.get(g, 0.0) - float(w)) < 1e-12
    extras = set(kern.nu) - set(oracle)
    assert not extras


def test_kernel_symmetry(zz, lazy):
    r = 0.6
    kern = first_return_kernel(lazy, 1, r, horizon=10, exploration_radius=10)
    for sigma, w in kern.nu.items():
        assert abs(kern.nu.get(zz.inverse(sigma), 0.0) - w) < 1e-13


def test_kernel_monotone_in_budgets(zz, walk):
    r = 0.5
    base = first_return_kernel(walk, 1, r, horizon=4, exploration_radius=6)
    more_h = first_return_kernel(walk, 1, r, horizon=8, exploration_radius=6)
    more_r = first_return_kernel(walk, 1, r, horizon=8, exploration_radius=10)
    assert base.mass <= more_h.mass <= more_r.mass + 1e-15
    for sigma, w in base.nu.items():
        assert more_h.nu.get(sigma, 0.0) >= w - 1e-15


def test_parabolic_green_base_cases(zz, walk):
    pg = parabolic_green(walk, 1, 0.5, 0.0, order=16, horizon=8, exploration_radius=6)
    assert pg.value == 1.0
    pg = parabolic_green(walk, 1, 0.0, 1.0, order=16, horizon=8, exploration_radius=6)
    assert pg.value == 1.0


def test_same_green_small_budget(zz, lazy):
    r = resolve_r(lazy, 0.5, n_max=16)
    rep = same_green_residual(lazy, 1, r, order=48, radius=10,
                              kernel_order=256, horizon=48, h_ball=32)
    assert rep["residual"] < 1e-5
    rep2 = same_green_residual(lazy, 2, r, order=48, radius=10,
                               kernel_order=256, horizon=48, h_ball=32)
    assert rep2["residual"] < 1e-5


def test_same_green_residual_shrinks(zz, lazy):
    r = resolve_r(lazy, 0.5, n_max=16)
    small = same_green_residual(lazy, 1, r, order=24, radius=6,
                                kernel_order=64, horizon=16, h_ball=16)
    big = same_green_residual(lazy, 1, r, order=48, radius=10,
                              kernel_order=256, horizon=48, h_ball=32)
    assert big["residual"] < small["residual"]


def test_kernel_radius_zero_kernel(walk):
    kr = kernel_radius(walk, 1, 0.0, order=32, horizon=8, exploration_radius=6)
    assert kr.estimate == math.inf


def test_kernel_radius_above_one_at_spectral(zz, lazy):
    r_hat = spectral_radius(lazy, 20).point
    kr = kernel_radius(lazy, 1, r_hat, order=128, horizon=48,
                       exploration_radius=10, h_ball=32)
    assert kr.estimate >= 1.0 - 1e-3
    assert kr.estimate > 1.0 + 5e-3  # non-degenerate with margin
    # closed form and extrapolation agree
    assert abs(kr.estimate - kr.mass_reciprocal) < 5e-3 * kr.mass_reciprocal


def test_kernel_power_series_on_cyclic_factor():
    grp = free_product(FactorSpec((0,)), FactorSpec((3,)))
    walk = lazy_walk(grp)
    series = kernel_power_series(walk, 2, 0.4, order=32, horizon=24,
                                 exploration_radius=8)
    assert series[0] == 1.0
    assert all(v >= 0 for v in series)
    assert any(v > 0 for v in series[1:])


def gathered_cyclic_powers(kernel, m, order):
    """Reference: p^(n)(e, e) on Z/m, each shift s adding c_s vec[(i - s) % m]
    through a gather index."""
    mover = np.zeros(m)
    for sigma, w in kernel.nu.items():
        mover[(sigma.syllables[0].coords[0] if sigma.syllables else 0) % m] += w
    vec = np.zeros(m)
    vec[0] = 1.0
    series = [1.0]
    for _ in range(order):
        new = np.zeros(m)
        for s in range(m):
            if mover[s]:
                new += mover[s] * vec[(np.arange(m) - s) % m]
        vec = new
        series.append(float(vec[0]))
    return series


@pytest.mark.parametrize("m", [3, 4, 5])
def test_cyclic_kernel_powers_equal_the_gathered_shifts(m):
    # the slice moves add the same products in the same shift order
    grp = free_product(FactorSpec((0,)), FactorSpec((m,)))
    skewed = measure_from_pairs(grp, [(grp.parse(x), Fraction(w)) for x, w in (
        ("e", "1/2"), ("1:(1)", "1/8"), ("1:(-1)", "1/8"), ("2:(1)", "3/16"),
        ("2:(2)", "1/16"))])
    for mu in (lazy_walk(grp), skewed):
        for r in (0.3, 0.9, 1.2):
            kern = first_return_kernel(mu, 2, r, horizon=16, exploration_radius=8)
            want = gathered_cyclic_powers(kern, m, 96)
            assert _kernel_power_series(mu, kern, 96, 8) == want


def slice_move_powers(measure, kernel, order, h_ball):
    """Reference: p^(n)(e, e) on the factor window, each step adding every
    kernel move into a zeroed level over the whole window, one window slice
    per move and per wrap of each cyclic axis.  A free axis is the window
    |c| <= h_ball, a cyclic one all its residues; the moves are taken in nu
    order, stably sorted by their cyclic residues."""
    moduli = measure.group.factor(kernel.factor).moduli
    width = 2 * h_ball + 1
    shape = tuple(m or width for m in moduli)
    center = tuple(0 if m else h_ball for m in moduli)
    kept = []
    for sigma, w in kernel.nu.items():
        off = sigma.syllables[0].coords if sigma.syllables else (0,) * len(moduli)
        if all(m or abs(c) <= 2 * h_ball for c, m in zip(off, moduli)):
            kept.append((off, w))
    kept.sort(key=lambda move: [c for c, m in zip(move[0], moduli) if m])
    moves = []  # (src, dst, w): the window a move shifts and where it lands
    for off, w in kept:
        pieces = []  # per axis, the (src, dst) slices of the shift
        for c, m in zip(off, moduli):
            if m:
                pieces.append([(slice(0, m - c), slice(c, m))]
                              + ([(slice(m - c, m), slice(0, c))] if c else []))
            else:
                lo, hi = max(0, -c), min(width, width - c)
                pieces.append([(slice(lo, hi), slice(lo + c, hi + c))])
        for piece in itertools.product(*pieces):
            moves.append((tuple(src for src, _ in piece), tuple(dst for _, dst in piece), w))
    vec = np.zeros(shape)
    vec[center] = 1.0
    series = [1.0]
    for _ in range(order):
        new = np.zeros(shape)
        for src, dst, w in moves:
            new[dst] += w * vec[src]
        vec = new
        series.append(float(vec[center]))
    return series


@st.composite
def factor_kernels(draw):
    """A measure on H * Z with H = Z^d (d = 1, 2, 3), Z/m or a mixed product
    of two or three Z and Z/m, a kernel on H with positive weights on
    arbitrary offsets (the identity among them or not, diagonal ones, some
    beyond 2 h_ball), h_ball and an order."""
    moduli = draw(st.one_of(
        st.integers(1, 3).map(lambda d: (0,) * d),
        st.integers(2, 7).map(lambda m: (m,)),
        st.lists(st.sampled_from((0, 2, 3, 5)), min_size=2, max_size=3).map(tuple)))
    h_ball = draw(st.integers(0, 5))
    grp = free_product(FactorSpec(moduli), FactorSpec((0,)))
    reach = [m - 1 if m else 2 * h_ball + 1 for m in moduli]
    offsets = draw(st.lists(st.tuples(*[st.integers(-r, r) for r in reach]), max_size=6))
    nu = {}
    for off in offsets:
        syl = grp.syllable(1, off)
        sigma = GroupElement((syl,) if any(syl.coords) else ())
        nu[sigma] = draw(st.floats(1e-3, 0.6))
    kernel = ReturnKernel(factor=1, r=1.0, nu=nu, horizon=0, exploration_radius=0)
    return lazy_walk(grp), kernel, h_ball, draw(st.integers(0, 100))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(factor_kernels())
def test_kernel_powers_equal_the_slice_moves_on_random_kernels(case):
    # the flat buffer adds the same products in the same move order, and its
    # light cone leaves out only cells that cannot reach the centre in time
    measure, kernel, h_ball, order = case
    assert (_kernel_power_series(measure, kernel, order, h_ball)
            == slice_move_powers(measure, kernel, order, h_ball))


@pytest.mark.parametrize("order", [0, 1, 5, 17, 40, 63, 64, 65, 130])
def test_kernel_powers_equal_the_slice_moves_inside_and_past_the_window(order):
    # the Z^2 kernel of the shipped z2-z3-lazy walk moves one L1 ring per
    # step: below 2 h_ball steps the cone never fills the window
    grp = free_product(FactorSpec((0, 0)), FactorSpec((3,)))
    mu = lazy_walk(grp)
    kern = first_return_kernel(mu, 1, 0.9, horizon=24, exploration_radius=8)
    assert _kernel_power_series(mu, kern, order, 32) == slice_move_powers(mu, kern, order, 32)


@pytest.mark.parametrize("k, r", [(1, 0.5), (2, 0.9), (1, 0.0)])
def test_first_return_kernel_sums_the_same_offsets_as_all_of_them(lazy, k, r):
    # skipping the offsets that carry no mass keeps nu's keys, values and order
    horizon, radius = 16, 8
    kern = first_return_kernel(lazy, k, r, horizon=horizon, exploration_radius=radius)
    prof, offsets = _absorption(lazy, k, horizon, radius)
    want = {}
    for idx, sigma in enumerate(offsets):
        val = math.fsum(prof[n, idx] * r ** (n + 1) for n in range(horizon))
        if val > 0.0:
            want[sigma] = val
    assert list(kern.nu.items()) == list(want.items())
    assert r == 0.0 or len(kern.nu) < len(offsets)


def test_green_moments_base_cases(zz, lazy):
    rep = green_moments(lazy, 1, 0.0, ladder=(1, 2), order=8, radius=6)
    assert rep.partial_sums[0] == 1.0 and rep.verdict == "finite"


def test_green_moments_finite_at_spectral(zz, lazy):
    r_hat = spectral_radius(lazy, 20).point
    rep = green_moments(lazy, 1, r_hat, ladder=(1, 2, 4), order=32, radius=10)
    assert rep.verdict == "finite"
    assert all(a <= b + 1e-15 for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))


def ladder_partials(measure, k, r, ladder, order, radius):
    """green_moments' partial sums as they were: one pair matrix per rung."""
    table, gf, gb = _field_arrays(measure, r, order, radius)
    partials = []
    for B in ladder:
        pair = pair_ids(table, _factor_ball(measure.group, k, B))
        keep = pair[0] >= 0
        ids = pair[0, keep]
        pair = pair[np.ix_(keep, keep)]
        v = gf[ids]
        u = gb[ids]
        G = np.where(pair >= 0, gf[np.maximum(pair, 0)], 0.0)
        partials.append(float(v @ G @ u))
    return tuple(partials)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["f2-lazy", "f2-simple", "z2-z3-lazy"])
@pytest.mark.parametrize("ladder", [(1, 2, 4, 8), (3, 1, 2), (2, 2), (0, 1), (5,)])
def test_green_moments_equal_the_per_rung_pair_matrices_on_configs(name, ladder):
    cfg = load_config(str(CONFIGS / f"{name}.json"))
    group = build_group(cfg)
    measure = build_measure(cfg, group, "float")
    r = 0.9 * spectral_radius(measure, 12).point
    for k in range(1, group.num_factors + 1):
        rep = green_moments(measure, k, r, ladder, order=12, radius=5)
        assert rep.partial_sums == ladder_partials(measure, k, r, ladder, 12, 5)


@st.composite
def moment_cases(draw):
    """A walk on a product of one to three Z^d (d <= 2) and Z/m factors
    (the lazy walk, or half the time e and a first-factor generator, 1/2
    each), a factor, r, a ladder and a radius."""
    specs = [
        draw(st.one_of(
            st.builds(lambda d: FactorSpec((0,) * d), st.integers(1, 2)),
            st.builds(lambda m: FactorSpec((m,)), st.integers(2, 6)),
        ))
        for _ in range(draw(st.integers(1, 3)))
    ]
    grp = free_product(*specs)
    measure = lazy_walk(grp).as_float()
    if draw(st.booleans()):  # a drift on the first factor: G(., e) is the pulled-back field
        unit = grp.syllable(1, (1,) + (0,) * (specs[0].dim - 1))
        pairs = [(grp.identity, 0.5), (GroupElement((unit,)), 0.5)]
        measure = measure_from_pairs(grp, pairs).as_float()
    ladder = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)))
    return (measure, draw(st.integers(1, len(specs))), draw(st.floats(0.0, 0.95)), ladder,
            draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(moment_cases())
def test_green_moments_equal_the_per_rung_pair_matrices_on_random_products(case):
    measure, k, r, ladder, radius = case
    rep = green_moments(measure, k, r, ladder, order=8, radius=radius)
    assert rep.partial_sums == ladder_partials(measure, k, r, ladder, 8, radius)


def test_classify_rejects_inadmissible(zz):
    from freewalk import Measure

    m = Measure(zz, {zz.gen("a"): Fraction(1, 2), zz.gen("a", -1): Fraction(1, 2)})
    with pytest.raises(ValueError):
        classify(m, n_max=8, order=16, radius=6, horizon=8,
                 kernel_order=16, h_ball=8)


def test_classify_lazy_f2(zz, lazy):
    res = classify(lazy, n_max=20, order=96, radius=10, horizon=48,
                   kernel_order=128, h_ball=32, ladder=(1, 2, 4))
    assert res.divergent == "yes"
    assert all(f.degenerate == "no" for f in res.factors)
    assert all(f.moments.verdict == "finite" for f in res.factors)
    assert res.spectrally_positive_recurrent == "yes"
    assert not res.warnings


def test_equadiff_rows(zz, lazy):
    rows = equadiff_table(lazy, [0.5, 0.7], n_max=20, order=64, radius=10,
                          horizon=48, kernel_order=128, h_ball=32)
    assert len(rows) == 2
    for row in rows:
        assert row.lhs > 0 and row.rhs >= 1.0
        assert 0 < row.ratio < math.inf
    # the series quantities have non-negative coefficients: the kernel side
    # grows with r (the lhs is a ratio and need not)
    assert rows[0].rhs <= rows[1].rhs


def test_equadiff_resolves_each_fraction(lazy):
    """Every r is `resolve_r`'s: on lazy F2 at n_max 20 a fraction of 1.5
    (r = 1.6102, above the certified bound 1.2501 on R) and nan raise,
    where they gave rows, and the rows for 0.5 and 0.7 are those of r =
    fraction * R-hat."""
    budgets = dict(n_max=20, order=32, radius=8, horizon=16, kernel_order=64, h_ball=16)
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError, match="fraction"):
            equadiff_table(lazy, [0.5, bad], **budgets)
    point = spectral_radius(lazy, 20).point
    qf = pruned_return_weights(lazy, 32, 8)
    want = []
    for frac in (0.5, 0.7):
        r = frac * point
        g1, g2 = series_derivative(qf, r, 1), series_derivative(qf, r, 2)
        rhs = 1.0
        for k in (1, 2):
            rhs += series_derivative(kernel_power_series(lazy, k, r, 64, 16, 8, 16), 1.0, 2)
        lhs = g2 / g1**3
        want.append(EquadiffRow(r=r, lhs=lhs, rhs=rhs, ratio=lhs / rhs))
    assert equadiff_table(lazy, [0.5, 0.7], **budgets) == want


def test_equadiff_r_zero_row(zz, lazy):
    rows = equadiff_table(lazy, [0.0], n_max=16, order=16, radius=6,
                          horizon=8, kernel_order=16, h_ball=8)
    q = [float(v) for v in __import__("freewalk").return_sequence(lazy, 4).values]
    assert abs(rows[0].lhs - (2 * q[2]) / q[1] ** 3) < 1e-12
