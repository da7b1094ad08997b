"""Gauge descriptors: parsing, evaluation, duality, convexification.

Frozen expected values in this file were cross-checked against independent
oracles: dense grid searches over dual balls, central finite differences for
duality maps, and closed-form special cases.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_mazur import (
    Convexified,
    Dual,
    Gauge,
    KyFan,
    Lp,
    convexify,
    dual_gauge,
    duality_map_seq,
    eval_gauge,
    eval_gauge_rows,
    format_gauge,
    parse_gauge,
)
from spectral_mazur import gauge as gauge_mod
from spectral_mazur.errors import GaugeParseError, NotSmooth, NumericalFailure, ZeroVector
from spectral_mazur.verify.config import DEFAULT_GAUGES, DEFAULT_P_GRID

import _reference_gauge as ref_gauge

# descriptors whose evaluation reduces to a closed form
CLOSED_GAUGES = (
    "lp:1",
    "lp:1.5",
    "lp:2",
    "lp:3",
    "lp:inf",
    "kyfan:1",
    "kyfan:2",
    "kyfan:3",
    "conv:2:lp:1",
    "conv:1.5:kyfan:2",
    "dual:lp:3",
    "dual:kyfan:2",
    "dual:conv:2:kyfan:2",
    "dual:conv:3:dual:kyfan:2",
    "dual:conv:inf:kyfan:2",
)

NESTED_BASES = ("lp:1", "lp:1.5", "lp:inf", "kyfan:2")
NESTED_WRAPPERS = ("conv:2:", "conv:3:", "dual:")


def _nested(max_depth):
    """Every descriptor with at most ``max_depth`` wrappers around a base."""
    return tuple(
        "".join(prefix) + base
        for depth in range(max_depth + 1)
        for prefix in itertools.product(NESTED_WRAPPERS, repeat=depth)
        for base in NESTED_BASES
    )


NESTED = _nested(3)
SHALLOW = _nested(2)  # wrapped once more by the dual_gauge / convexify tests


def _expected_canonical(text):
    """Reduce a descriptor string outward from its base, one wrapper at a time.

    Written independently of the package: dual pairs cancel, stacked
    convexifications multiply, and both act on lp exponents directly.
    """
    ops = []
    while text.startswith(("conv:", "dual:")):
        head, text = text.split(":", 1)
        if head == "conv":
            p, text = text.split(":", 1)
            ops.append(float(p))
        else:
            ops.append(None)
    g = parse_gauge(text)
    for p in reversed(ops):
        if isinstance(g, Lp):
            g = Lp(g.p * p) if p else Lp(1.0 / (1.0 - 1.0 / g.p) if g.p > 1.0 else math.inf)
        elif p is None:
            g = g.base if isinstance(g, Dual) else Dual(g)
        else:
            g = Convexified(g.base, g.p * p) if isinstance(g, Convexified) else Convexified(g, p)
    return g


def _same_canonical(c, expected):
    if isinstance(expected, Lp):
        return isinstance(c, Lp) and c.p == pytest.approx(expected.p, rel=1e-14)
    return c == expected


def _has_dual_conv(c):
    """True when canonical ``c`` evaluates the dual of a convexified gauge,
    for which :func:`_direct` has no form."""
    return "dual:conv:" in format_gauge(c)


def _direct(g, v):
    """Evaluate a canonical descriptor from its definition (no peak scaling);
    duals of convexified gauges excepted."""
    a = np.abs(v)
    if isinstance(g, Lp):
        return float(a.max()) if math.isinf(g.p) else float(np.sum(a**g.p) ** (1.0 / g.p))
    if isinstance(g, KyFan):
        return float(np.sort(a)[-g.k :].sum())
    if isinstance(g, Convexified):
        return _direct(g.base, a**g.p) ** (1.0 / g.p)
    assert isinstance(g, Dual) and isinstance(g.base, KyFan)
    return max(float(a.max()), float(a.sum()) / g.base.k)


vectors = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=64),
    min_size=1,
    max_size=8,
).map(lambda xs: np.array(xs, dtype=float))


# ---------------------------------------------------------------------------
# parsing and formatting


@pytest.mark.parametrize(
    "text",
    ["lp:1", "lp:1.5", "lp:2", "lp:inf", "kyfan:1", "kyfan:7", "conv:2:lp:1", "conv:2.5:kyfan:2", "dual:lp:3", "dual:conv:2:kyfan:2", "conv:2:conv:3:lp:1", "dual:dual:kyfan:2"],
)
def test_parse_format_roundtrip(text):
    assert format_gauge(parse_gauge(text)) == text


def test_parse_structure():
    g = parse_gauge("conv:2:lp:3")
    assert g == Convexified(Lp(3.0), 2.0)
    assert parse_gauge("dual:kyfan:2") == Dual(KyFan(2))
    assert parse_gauge("lp:inf") == Lp(math.inf)


@pytest.mark.parametrize(
    "bad",
    ["", "lp", "lp:", "lp:0.5", "lp:abc", "lp:nan", "kyfan:0", "kyfan:2.5", "kyfan:-1", "bogus:2", "conv:2", "conv:0.9:lp:2", "dual:", "lp:2:extra"],
)
def test_parse_rejects(bad):
    with pytest.raises(GaugeParseError):
        parse_gauge(bad)


@pytest.mark.parametrize(
    "text",
    ["dual:conv:2:dual:conv:3:kyfan:2", "dual:conv:2:conv:3:dual:conv:2:dual:kyfan:1", "conv:2:dual:conv:2:dual:conv:3:kyfan:2"],
)
def test_dual_of_convexified_dual_conv_is_refused(text):
    # no closed form: refused when read, and when built directly
    with pytest.raises(GaugeParseError, match="dual:conv:"):
        parse_gauge(text)
    with pytest.raises(GaugeParseError):
        eval_gauge(gauge_mod._parse(text), [1.0, 2.0])


def test_parse_refuses_nesting_past_the_recursion_limit():
    # refused as a descriptor, not left to escape as a RecursionError
    assert gauge_mod._canonical_form(parse_gauge("dual:" * 100 + "lp:2")) == Lp(2.0)
    for text in ("dual:" * 2000 + "lp:2", "conv:2:" * 2000 + "kyfan:2"):
        with pytest.raises(GaugeParseError, match="nested too deeply"):
            parse_gauge(text)


def test_depth_one_dual_conv_is_accepted():
    # inside a convexification the dual is one level deep and evaluates in closed form
    g = parse_gauge("conv:2:dual:conv:3:kyfan:2")
    v = np.array([0.3, -1.2, 0.7, 2.0])
    assert eval_gauge(g, v) == pytest.approx(eval_gauge(parse_gauge("dual:conv:3:kyfan:2"), v**2) ** 0.5, rel=1e-14)
    # a written dual pair around it cancels before its inner dual is reduced
    gg = parse_gauge("dual:dual:conv:2:dual:conv:3:kyfan:2")
    assert gauge_mod._canonical_form(gg) == gauge_mod._canonical_form(g)
    assert eval_gauge(gg, v) == eval_gauge(g, v)


def test_dual_pair_cancels_through_a_trivial_convexification():
    # conv:1 is the identity, so the two duals around it cancel
    assert gauge_mod._canonical_form(parse_gauge("dual:conv:1:dual:kyfan:2")) == KyFan(2)
    assert gauge_mod._canonical_form(parse_gauge("dual:conv:1:dual:conv:2:kyfan:2")) == Convexified(KyFan(2), 2.0)


def test_infinite_convexification_is_lp_inf():
    # base(|v|^p)^(1/p) tends to max|v| for every base, so conv:inf reduces
    # to lp:inf and its dual to lp:1, deep shapes included
    for s in ("conv:inf:kyfan:2", "conv:inf:dual:kyfan:2", "conv:inf:conv:2:kyfan:3", "conv:2:conv:inf:kyfan:3"):
        assert gauge_mod._canonical_form(parse_gauge(s)) == Lp(math.inf), s
        assert dual_gauge(parse_gauge(s)) == Lp(1.0), s
    assert gauge_mod._canonical_form(parse_gauge("dual:conv:inf:dual:conv:3:kyfan:2")) == Lp(1.0)


def test_exponent_formatting():
    assert format_gauge(Lp(2.0)) == "lp:2"
    assert format_gauge(Lp(1.5)) == "lp:1.5"
    assert format_gauge(Lp(math.inf)) == "lp:inf"


# ---------------------------------------------------------------------------
# frozen evaluation values


def test_lp_values():
    assert eval_gauge(Lp(2.0), [3.0, 4.0]) == pytest.approx(5.0, rel=1e-14)
    assert eval_gauge(Lp(1.0), [3.0, -4.0]) == pytest.approx(7.0, rel=1e-14)
    assert eval_gauge(Lp(math.inf), [3.0, -4.0]) == pytest.approx(4.0, rel=1e-14)


def test_kyfan_values():
    assert eval_gauge(KyFan(2), [5.0, -1.0, 3.0]) == pytest.approx(8.0, rel=1e-14)
    # k larger than the vector length sums every entry
    assert eval_gauge(KyFan(3), [3.0, 4.0]) == pytest.approx(7.0, rel=1e-14)


def test_convexified_kyfan_frozen():
    # sqrt of the sum of the two largest squares: sqrt(9 + 4)
    g = parse_gauge("conv:2:kyfan:2")
    assert eval_gauge(g, [3.0, 2.0, 1.0]) == pytest.approx(math.sqrt(13.0), rel=1e-12)


def test_dual_kyfan_frozen_against_grid():
    # value 1.5 = max(max |v|, sum/k); re-derived here by a coarse grid
    # search over the primal ball
    g = Dual(KyFan(2))
    val = eval_gauge(g, [1.0, 1.0, 1.0])
    assert val == pytest.approx(1.5, rel=1e-12)
    best = 0.0
    pts = np.linspace(-1.0, 1.0, 41)
    for v in itertools.product(pts, repeat=3):
        arr = np.abs(np.array(v))
        if np.sort(arr)[-2:].sum() <= 1.0 + 1e-12:
            best = max(best, float(np.sum(v)))
    assert best == pytest.approx(1.5, abs=1e-9)


def test_dual_numeric_agrees_with_analytic_extremizer():
    # dual of the top-2 Euclidean gauge at the all-ones vector: the
    # symmetric point (1,1,1)/sqrt(2) is extremal, so the value is 3/sqrt(2)
    g = parse_gauge("dual:conv:2:kyfan:2")
    val = eval_gauge(g, [1.0, 1.0, 1.0])
    assert val == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-12)


def test_normalization_on_first_basis_vector():
    for s in CLOSED_GAUGES:
        g = parse_gauge(s)
        assert eval_gauge(g, [1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12), s


def test_canonical_equivalences_numeric():
    # p-convexification of lp:q evaluates as lp:pq; dual of lp:p as the
    # conjugate exponent; double dual returns to the base
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=5)
        assert eval_gauge(parse_gauge("conv:2:lp:3"), v) == pytest.approx(eval_gauge(Lp(6.0), v), rel=1e-12)
        assert eval_gauge(parse_gauge("dual:lp:1.5"), v) == pytest.approx(eval_gauge(Lp(3.0), v), rel=1e-12)
        assert eval_gauge(parse_gauge("dual:dual:kyfan:2"), v) == pytest.approx(eval_gauge(KyFan(2), v), rel=1e-12)
        assert eval_gauge(parse_gauge("conv:2:conv:3:lp:1"), v) == pytest.approx(eval_gauge(Lp(6.0), v), rel=1e-12)
    assert eval_gauge(parse_gauge("dual:conv:inf:kyfan:2"), v) == eval_gauge(Lp(1.0), v)
    # nested descriptors reduce to the independently derived canonical form
    # and evaluate like it; where that form takes the dual of a convexified
    # gauge, the SLSQP lower bound must not exceed the closed form
    v = rng.normal(size=5)
    slsqp = {}
    for s in NESTED:
        g = parse_gauge(s)
        expected = _expected_canonical(s)
        assert _same_canonical(gauge_mod._canonical_form(g), expected), s
        if not _has_dual_conv(expected):
            assert eval_gauge(g, v) == pytest.approx(_direct(expected, v), rel=1e-12), s
        else:
            if expected not in slsqp:
                slsqp[expected] = ref_gauge.eval_gauge(expected, v)
            assert slsqp[expected] <= eval_gauge(g, v) * (1.0 + 1e-12), s


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.5, 7.3, math.inf])
def test_double_dual_of_lp_is_exact(q):
    # the dual pair cancels before any exponent is conjugated, so q is kept
    # to the last bit (conjugating 4.5 twice gives 4.499999999999999)
    for wrap in ("dual:dual:", "dual:dual:dual:dual:"):
        c = gauge_mod._canonical_form(parse_gauge(wrap + format_gauge(Lp(q))))
        assert c == Lp(q) and format_gauge(c) == format_gauge(Lp(q)), (wrap, q)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.5, 7.3, math.inf])
def test_dual_gauge_applied_twice_is_exact(q):
    # dual_gauge returns canonical forms; the conjugate remembers the exponent
    # it came from, so the second application gives q back to the last bit
    once = dual_gauge(Lp(q))
    assert once.p == gauge_mod._conjugate(q)  # a single application is unchanged
    assert once == Lp(gauge_mod._conjugate(q)) and hash(once) == hash(Lp(once.p)) and repr(once) == repr(Lp(once.p))
    for times in (2, 4):
        g = Lp(q)
        for _ in range(times):
            g = dual_gauge(g)
        assert g.p == q and format_gauge(g) == format_gauge(Lp(q)), times
        assert g == Lp(q) and hash(g) == hash(Lp(q)) and repr(g) == repr(Lp(q)), times


def test_canonical_form_computed_once(monkeypatch):
    calls = []
    reduce = gauge_mod._canonical

    def counting(g):
        calls.append(g)
        return reduce(g)

    monkeypatch.setattr(gauge_mod, "_canonical", counting)
    v = np.array([0.3, -1.2, 0.7])
    for s in NESTED:
        g = parse_gauge(s)
        for _ in range(100):
            if g.smooth:
                duality_map_seq(g, v)
            eval_gauge(g, v)
    # calls holds every argument, so no id is reused
    assert max(Counter(map(id, calls)).values()) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_gauge("lp:2", [1.0, 2.0]),
        lambda: eval_gauge(Gauge(), [1.0, 2.0]),
        lambda: duality_map_seq(None, [1.0, 2.0]),
        lambda: dual_gauge("lp:2"),
        lambda: convexify(2.0, 2.0),
        lambda: Gauge().smooth,
        lambda: format_gauge(object()),
    ],
)
def test_non_descriptors_rejected(call):
    with pytest.raises(GaugeParseError):
        call()


def _rows_cases(seed: int, n: int) -> np.ndarray:
    """Signed rows of mixed scale, a zero row and rows scaled to 1e300 and 1e-300."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(6, n)) * 10.0 ** rng.uniform(-3, 3, size=(6, 1))
    return np.vstack([rows, np.zeros((1, n)), rows / np.abs(rows).max() * 1e300, rows * 1e-300])


# the evaluators below are compared with the scalar evaluator they replaced,
# kept in ``_reference_gauge``: ``eval_gauge`` is now a one-row call of the
# row evaluator, so comparing the two would compare the path with itself


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 60.0, math.inf])
def test_eval_rows_matches_eval_gauge_lp(p):
    rows = np.vstack([_rows_cases(8, 5), [[0.0, 0.0, 2.0, 0.0, 0.0]]])
    want = [ref_gauge.eval_gauge(Lp(p), row) for row in rows]
    got = eval_gauge_rows(Lp(p), rows)
    assert got.tolist() == want, p
    assert [eval_gauge(Lp(p), row) for row in rows] == want, p
    assert got[6] == 0.0


DUAL_CONV_GAUGES = ("dual:conv:2:kyfan:2", "dual:conv:3:dual:kyfan:2")


@pytest.mark.parametrize("s", DUAL_CONV_GAUGES)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17])
def test_eval_rows_equals_eval_for_dual_conv(s, n):
    # the scalar evaluator had no closed form for these duals, so rows are
    # compared with eval_gauge, and one row with the SLSQP lower bound; the
    # rows scaled to 1e300 and 1e-300 are the first six rows again
    g = parse_gauge(s)
    rows = _rows_cases(n, n)
    got = eval_gauge_rows(g, rows)
    assert got.tolist() == [eval_gauge(g, row) for row in rows]
    desc = np.sort(np.abs(rows), axis=1)[:, ::-1]
    assert eval_gauge_rows(g, desc).tolist() == got.tolist()
    assert got[6] == 0.0
    peaks = np.abs(rows).max(axis=1)
    for j in range(6):
        for copy in (j + 7, j + 13):
            assert got[copy] / peaks[copy] == pytest.approx(got[j] / peaks[j], rel=1e-14), (j, copy)
    assert ref_gauge.eval_gauge(g, rows[0]) <= got[0] * (1.0 + 1e-12)


@pytest.mark.parametrize("form", ["dual:conv:2:kyfan:{}", "dual:conv:3:dual:kyfan:{}"])
def test_dual_conv_kyfan_index_past_n_is_n(form):
    # k > n behaves as k = n, also for an index past int64, which numpy
    # cannot hold
    rng = np.random.default_rng(18)
    for n in (1, 3, 8):
        rows = np.abs(rng.normal(size=(4, n)))
        want = eval_gauge_rows(parse_gauge(form.format(n)), rows).tolist()
        for k in (n + 1, 2**63, 10**30):
            g = parse_gauge(form.format(k))
            assert eval_gauge_rows(g, rows).tolist() == want, (n, k)
            assert [eval_gauge(g, row) for row in rows] == want, (n, k)


def _norming_functional(base, v):
    """A norming functional of the canonical ``Convexified(B, p)`` at ``v >= 0``,
    for ``B`` = ``KyFan(k)`` or ``Dual(KyFan(k))``: ``<f, v> = base(v)`` and the
    dual norm of ``f`` is 1.

    For the top-k l^p norm, ``f`` is ``v^(p-1)`` on the top k entries and 0
    elsewhere, divided by ``base(v)^(p-1)``.  For the ball
    ``{max u <= 1, sum u^p <= k}`` it is ``v^(p-1) / (k base(v)^(p-1))``
    where the sum constraint is the active one, and a basis vector at the
    peak where the bound is.
    """
    p = base.p
    nv = _direct(base, v)
    if isinstance(base.base, KyFan):
        f = np.zeros_like(v)
        top = np.argsort(v)[::-1][: base.base.k]
        f[top] = v[top] ** (p - 1.0)
        return f / nv ** (p - 1.0)
    k = base.base.base.k
    if float(np.sum(v**p)) / k > float(v.max()) ** p:
        return v ** (p - 1.0) / (k * nv ** (p - 1.0))
    return (v == v.max()).astype(float) / np.count_nonzero(v == v.max())


@pytest.mark.parametrize("n", range(1, 9))
def test_dual_conv_against_two_oracles(n):
    # the closed forms against an SLSQP search of the base ball, which only
    # bounds them from below, and exactly at norming functionals of the base
    rng = np.random.default_rng(n)
    for s in DUAL_CONV_GAUGES:
        g = parse_gauge(s)
        v = rng.normal(size=n)
        assert ref_gauge.eval_gauge(g, v) <= eval_gauge(g, v) * (1.0 + 1e-12), s
    for k in (1, 2, 3):
        for p in (1.001, 1.01, 1.5, 2.0, 3.0, 4.5):
            for base in (Convexified(KyFan(k), p), Convexified(Dual(KyFan(k)), p)):
                for scale in (0.5, 1.0, 2.0):
                    v = np.abs(rng.normal(size=n)) + scale * rng.uniform(size=n) ** 4
                    f = _norming_functional(base, v)
                    assert float(f @ v) == pytest.approx(_direct(base, v), rel=1e-12), (base, n)
                    assert eval_gauge(Dual(base), f) == pytest.approx(1.0, rel=1e-12), (base, n)


@pytest.mark.parametrize("p", [1.001, 1.01])
def test_dual_conv_near_p_one(p):
    # q = p' is large.  At the identity the top-1 form pools all three
    # entries at level 3, whose q-th power overflows at p = 1.001; the
    # water-filling form's tail 0.3^q is far below the peak's power 1 and
    # underflows there.  Both values are exact, and SLSQP stays below them
    q = gauge_mod._conjugate(p)
    for s, v, want in (
        (f"dual:conv:{p}:kyfan:1", [1.0, 1.0, 1.0], 3.0),
        (f"dual:conv:{p}:dual:kyfan:2", [1.0, 0.3, 0.3, 0.3], 1.0 + 3.0 ** (1.0 / q) * 0.3),
    ):
        g = parse_gauge(s)
        got = eval_gauge(g, v)
        assert got == pytest.approx(want, rel=1e-12), s
        big = np.multiply(v, 1e300)
        assert eval_gauge_rows(g, np.array([v, big])).tolist() == [got, eval_gauge(g, big)], s
        assert ref_gauge.eval_gauge(g, v) <= got * (1.0 + 1e-12), s


ROW_GAUGES = (
    "lp:1",
    "lp:1.5",
    "lp:2",
    "lp:4",
    "lp:6",
    "lp:60",
    "lp:inf",
    "kyfan:1",
    "kyfan:2",
    "kyfan:40",
    "conv:2:kyfan:2",
    "dual:kyfan:2",
    "conv:3:lp:2",
    "conv:2:dual:kyfan:3",
)


def _oracle_grid(dim: int) -> np.ndarray:
    """The grid oracle's shapes: 4001 rays through the 2-simplex, or the
    81 x 81 refinement around a 3-simplex point, with zero rows among them
    and copies of the first 200 rows scaled by 1e300 and 1e-300."""
    if dim == 2:
        t = np.linspace(0.0, 1.0, 4001)
        grid = np.column_stack((t, 1.0 - t))
    else:
        axis = np.linspace(-1.0 / 60, 1.0 / 60, 81)
        da, db = np.meshgrid(axis, axis, indexing="ij")
        a, b = 0.3 + da.ravel(), 0.45 + db.ravel()
        grid = np.column_stack((a, b, 1.0 - a - b))
    grid = np.insert(grid, [0, 1, len(grid) // 2, len(grid)], 0.0, axis=0)
    return np.vstack([grid, grid[:200] * 1e300, grid[:200] * 1e-300])


@pytest.mark.parametrize("s", ROW_GAUGES)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 17, "oracle2", "oracle3"])
def test_eval_gauge_rows_equals_eval_gauge_exactly(s, n):
    g = parse_gauge(s)
    rows = _oracle_grid(int(n[-1])) if isinstance(n, str) else _rows_cases(n, n)
    desc = np.sort(np.abs(rows), axis=1)[:, ::-1]  # the suites pass descending views
    for a in (rows, desc):
        want = [ref_gauge.eval_gauge(g, row) for row in a]
        got = eval_gauge_rows(g, a)
        assert got.shape == (len(a),)
        assert got.tolist() == want
        assert [eval_gauge(g, row) for row in a] == want
    zero = ~rows.any(axis=1)
    assert zero.any() and not eval_gauge_rows(g, rows)[zero].any()


def _root_exponents() -> list[float]:
    """The exponents whose roots the row evaluator takes for the default
    suite gauges, the row gauges and the oracle gauges, convexified over
    the default p-grid, and for their duals, plus the near-1 duals above."""
    found = {gauge_mod._conjugate(1.001), gauge_mod._conjugate(1.01)}
    for s in (*DEFAULT_GAUGES, *ROW_GAUGES, "lp:3", "conv:2:lp:2"):
        for p in DEFAULT_P_GRID:
            for c in (convexify(parse_gauge(s), p), dual_gauge(convexify(parse_gauge(s), p))):
                if isinstance(c, (Lp, Convexified)):
                    found.add(c.p)
                elif isinstance(c, Dual) and isinstance(c.base, Convexified):
                    found.add(gauge_mod._conjugate(c.base.p))  # the l^q root of the pooled row
    return sorted(p for p in found if 1.0 < p < math.inf)


def test_float_power_root_is_the_scalar_pow():
    # the row evaluator's root is np.float_power because it calls the C
    # library's pow per entry, exactly as Python's float pow does; a numpy
    # whose float_power takes a SIMD loop fails here first
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(1.0, 64.0, 20000), rng.uniform(0.0, 1.0, 5000), 10.0 ** rng.uniform(-300, 0, 5000), [0.0, 1.0, 2.0, 17.0]])
    exponents = _root_exponents()
    assert len(exponents) > 30 and {1.5, 2.0, 6.0, 60.0} <= set(exponents)
    for p in exponents:
        inv = 1.0 / p
        got = np.float_power(x, inv)
        assert got.dtype == np.float64
        assert got.tolist() == [s**inv for s in x.tolist()], p
        assert np.float_power(x[::-3], inv).tolist() == got[::-3].tolist(), p


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eval_gauge_rows_rejects_non_finite(bad):
    rows = np.ones((3, 4))
    rows[2, 1] = bad
    with pytest.raises(NumericalFailure):
        eval_gauge_rows(Lp(2.0), rows)


@pytest.mark.parametrize("shape", [(4,), (0, 3), (3, 0), (2, 2, 2)])
def test_eval_gauge_rows_rejects_bad_shapes(shape):
    with pytest.raises(GaugeParseError):
        eval_gauge_rows(Lp(2.0), np.ones(shape))


def test_overflow_safe_evaluation():
    v = np.array([1e200, 5e199])
    assert eval_gauge(Lp(4.0), v) == pytest.approx(1e200 * (1 + 0.5**4) ** 0.25, rel=1e-12)
    assert math.isfinite(eval_gauge(parse_gauge("conv:3:lp:2"), v))


# ---------------------------------------------------------------------------
# the smoothness flag


def test_flags():
    assert Lp(2.0).smooth
    assert Lp(1.5).smooth
    assert not Lp(1.0).smooth
    assert not Lp(math.inf).smooth
    assert not KyFan(2).smooth
    # canonicalizes to lp:2, hence smooth
    g = parse_gauge("conv:2:lp:1")
    assert g.smooth
    # genuinely non-lp convexification: not certified smooth
    h = parse_gauge("conv:2:kyfan:2")
    assert not h.smooth
    d = parse_gauge("dual:conv:2:kyfan:2")
    assert not d.smooth
    # in this grammar a gauge is smooth exactly when the canonical form is
    # lp:p with 1 < p < inf
    for s in NESTED:
        g = parse_gauge(s)
        expected = _expected_canonical(s)
        lp_smooth = isinstance(expected, Lp) and 1.0 < expected.p < math.inf
        assert g.smooth == lp_smooth, s


# ---------------------------------------------------------------------------
# dual and convexify constructors


def test_dual_gauge_structure():
    assert dual_gauge(Lp(1.5)) == Lp(3.0)
    assert dual_gauge(Lp(1.0)) == Lp(math.inf)
    assert dual_gauge(Dual(KyFan(2))) == KyFan(2)
    assert dual_gauge(KyFan(2)) == Dual(KyFan(2))
    # dual_gauge evaluates exactly like the wrapped descriptor
    v = np.array([0.3, -1.2, 0.7, 2.0])
    for s in SHALLOW:
        g = parse_gauge(s)
        assert eval_gauge(dual_gauge(g), v) == eval_gauge(Dual(g), v), s


def test_convexify_structure():
    assert convexify(Lp(2.0), 3.0) == Lp(6.0)
    assert convexify(KyFan(2), 1.0) == KyFan(2)
    assert convexify(Convexified(KyFan(2), 2.0), 3.0) == Convexified(KyFan(2), 6.0)
    # convexify evaluates exactly like the wrapped descriptor
    v = np.array([0.3, -1.2, 0.7, 2.0])
    for s in SHALLOW:
        g = parse_gauge(s)
        for p in (2.0, 3.0):
            assert eval_gauge(convexify(g, p), v) == eval_gauge(Convexified(g, p), v), s
    with pytest.raises(GaugeParseError):
        convexify(Lp(2.0), 0.5)


# ---------------------------------------------------------------------------
# duality map


def test_duality_map_frozen_point():
    w = np.array([2.0**-0.25, 2.0**-0.25])
    out = duality_map_seq(Lp(4.0), w)
    assert np.allclose(out, 2.0**-0.75, rtol=1e-12)


def test_duality_map_matches_finite_differences():
    # J(v) = N(v) grad N(v), checked by central differences on N
    rng = np.random.default_rng(1)
    for s in ("lp:1.5", "lp:2", "lp:4", "conv:2:lp:1", "dual:lp:3"):
        g = parse_gauge(s)
        for _ in range(5):
            v = rng.normal(size=4)
            v[np.abs(v) < 0.1] += 0.2  # keep away from kinks of |.|
            n0 = eval_gauge(g, v)
            h = 1e-6
            grad = np.zeros_like(v)
            for k in range(v.size):
                e = np.zeros_like(v)
                e[k] = h
                grad[k] = (eval_gauge(g, v + e) - eval_gauge(g, v - e)) / (2 * h)
            assert np.allclose(duality_map_seq(g, v), n0 * grad, rtol=1e-5, atol=1e-7), s


def test_duality_map_identities():
    rng = np.random.default_rng(2)
    for s in ("lp:1.5", "lp:2", "lp:4", "conv:3:lp:2"):
        g = parse_gauge(s)
        for _ in range(10):
            v = rng.normal(size=6)
            j = duality_map_seq(g, v)
            n = eval_gauge(g, v)
            assert float(j @ v) == pytest.approx(n * n, rel=1e-10)
            assert eval_gauge(dual_gauge(g), j) == pytest.approx(n, rel=1e-10)


def test_duality_map_homogeneous():
    g = Lp(3.0)
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(duality_map_seq(g, 2.5 * v), 2.5 * duality_map_seq(g, v), rtol=1e-12)
    assert np.allclose(duality_map_seq(g, -v), -duality_map_seq(g, v), rtol=1e-12)


def test_duality_map_overflow_safe():
    out = duality_map_seq(Lp(4.0), np.array([1e200, 1e200]))
    assert np.all(np.isfinite(out))
    assert eval_gauge(Lp(4.0 / 3.0), out) == pytest.approx(eval_gauge(Lp(4.0), [1e200, 1e200]), rel=1e-12)


def test_duality_map_preconditions():
    with pytest.raises(NotSmooth):
        duality_map_seq(Lp(1.0), np.array([1.0, 2.0]))
    with pytest.raises(NotSmooth):
        duality_map_seq(KyFan(2), np.array([1.0, 2.0]))
    with pytest.raises(ZeroVector):
        duality_map_seq(Lp(2.0), np.zeros(3))


# ---------------------------------------------------------------------------
# randomized gauge axioms


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=vectors, t=st.floats(-50.0, 50.0, allow_nan=False, width=64))
def test_homogeneity(v, t):
    for s in CLOSED_GAUGES:
        g = parse_gauge(s)
        lhs = eval_gauge(g, t * v)
        rhs = abs(t) * eval_gauge(g, v)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12), s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=vectors, w=vectors)
def test_triangle_inequality(v, w):
    n = max(v.size, w.size)
    a = np.zeros(n)
    b = np.zeros(n)
    a[: v.size] = v
    b[: w.size] = w
    for s in CLOSED_GAUGES:
        g = parse_gauge(s)
        lhs = eval_gauge(g, a + b)
        rhs = eval_gauge(g, a) + eval_gauge(g, b)
        assert lhs <= rhs * (1 + 1e-11) + 1e-12, s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=vectors, seed=st.integers(0, 2**32 - 1))
def test_symmetry_under_signs_and_permutations(v, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(v.size)
    signs = rng.choice([-1.0, 1.0], size=v.size)
    for s in CLOSED_GAUGES:
        g = parse_gauge(s)
        assert eval_gauge(g, signs * v[perm]) == pytest.approx(eval_gauge(g, v), rel=1e-12, abs=1e-300), s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=vectors, w=vectors)
def test_dual_pairing_inequality(v, w):
    n = max(v.size, w.size)
    a = np.zeros(n)
    b = np.zeros(n)
    a[: v.size] = v
    b[: w.size] = w
    for s in CLOSED_GAUGES:
        g = parse_gauge(s)
        lhs = abs(float(a @ b))
        rhs = eval_gauge(g, a) * eval_gauge(dual_gauge(g), b)
        assert lhs <= rhs * (1 + 1e-10) + 1e-10, s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(v=vectors)
def test_bidual_is_identity(v):
    for s in CLOSED_GAUGES:
        g = parse_gauge(s)
        gg = dual_gauge(dual_gauge(g))
        assert eval_gauge(gg, v) == pytest.approx(eval_gauge(g, v), rel=1e-10, abs=1e-300), s
