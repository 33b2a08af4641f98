"""The dense-table ObservedLaw against scans over its own pmf.

ScanLaw answers every query by scanning the cells, and the REFERENCE
functionals are the per-level loops that read it one scalar query at a time;
together they are the scalar route the array queries and the vectorised
functionals must reproduce, values and degenerate-stratum messages alike.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medscm as M
from medscm import sample

TOL = 0.0   # the array route adds the terms the scans add, in their order


class ScanLaw:
    """An ObservedLaw read by scanning every cell of its pmf per query."""

    def __init__(self, law):
        self.pmf = dict(law.pmf)
        self.exposure_levels, self.m_support, self.l_support = (
            law.exposure_levels, law.m_support, law.l_support)
        self.has_l = law.has_l

    def c_strata(self):
        acc = {}
        for (c, *_), w in self.pmf.items():
            acc[c] = acc.get(c, 0.0) + w
        return list(acc.items())

    def _scan(self, c, a, l, m):
        den = num = 0.0
        for key, w in self.pmf.items():
            if all(v is None or k == v for k, v in zip(key, (c, a, l, m))):
                den += w
                num += w * key[4]
        return den, num

    def prob(self, *, c=None, a=None, l=None, m=None):
        return self._scan(c, a, l, m)[0]

    def cond_prob(self, *, of, given):
        denom = self.prob(**given)
        if denom <= 0.0:
            raise M.DegenerateStratumError(repr(given))
        return self.prob(**{**given, **of}) / denom

    def mean_y(self, *, c=None, a=None, l=None, m=None):
        den, num = self._scan(c, a, l, m)
        if den <= 0.0:
            raise M.DegenerateStratumError(f"E(Y | c={c!r}, a={a!r}, l={l!r}, m={m!r})")
        return num / den


def _arm_positivity(law):
    for c, _w in law.c_strata():
        for ap in law.exposure_levels:
            if law.prob(c=c, a=ap) <= 0.0:
                raise M.DegenerateStratumError(f"Pr(A={ap} | c={c!r}) = 0")


def _mediator_positivity(law):
    _arm_positivity(law)
    for c, _w in law.c_strata():
        for ap in law.exposure_levels:
            for m in law.m_support:
                if law.prob(c=c, a=ap, m=m) <= 0.0:
                    raise M.DegenerateStratumError(f"Pr(M={m} | A={ap}, c={c!r}) = 0")


def _l_standardised(law, c, ap, m):
    acc = 0.0
    for l in law.l_support:
        w_l = law.cond_prob(of={"l": l}, given={"c": c, "a": ap})
        if w_l > 0.0:
            acc += w_l * law.mean_y(c=c, a=ap, l=l, m=m)
    return acc


def ref_te(law):
    _arm_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w in law.c_strata():
        value += w * (law.mean_y(c=c, a=a) - law.mean_y(c=c, a=a_star))
    return value


def ref_cde(law, m):
    _arm_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        if law.has_l:
            per_arm = [_l_standardised(law, c, ap, m) for ap in (a, a_star)]
        else:
            per_arm = [law.mean_y(c=c, a=ap, m=m) for ap in (a, a_star)]
        value += w_c * (per_arm[0] - per_arm[1])
    return value


def ref_nie(law):
    _mediator_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        inner = 0.0
        for m in law.m_support:
            w_m = law.cond_prob(of={"m": m}, given={"c": c, "a": a_star})
            if w_m > 0.0:
                inner += w_m * law.mean_y(c=c, a=a, m=m)
        value += w_c * (law.mean_y(c=c, a=a) - inner)
    return value


def ref_nie_r_L(law):
    _mediator_positivity(law)
    a_star, a = law.exposure_levels
    value = 0.0
    for c, w_c in law.c_strata():
        acc = 0.0
        for m in law.m_support:
            delta = (law.cond_prob(of={"m": m}, given={"c": c, "a": a})
                     - law.cond_prob(of={"m": m}, given={"c": c, "a": a_star}))
            if delta != 0.0:
                acc += delta * _l_standardised(law, c, a, m)
        value += w_c * acc
    return value


def ref_nie_rl(law):
    a_star, a = law.exposure_levels
    value = 0.0
    for c, _w in law.c_strata():
        for l in law.l_support:
            w_cl = law.prob(c=c, l=l)
            if w_cl <= 0.0:
                continue
            first = law.mean_y(c=c, a=a, l=l)
            second = 0.0
            for m in law.m_support:
                w_m = law.cond_prob(of={"m": m}, given={"c": c, "a": a_star, "l": l})
                if w_m > 0.0:
                    second += w_m * law.mean_y(c=c, a=a, l=l, m=m)
            value += w_cl * (first - second)
    return value


def _outcome(fn):
    try:
        return fn()
    except M.DegenerateStratumError as exc:
        return str(exc)


def _functional_pairs(law):
    pairs = [(M.psi_te, ref_te), (M.psi_nie, ref_nie)]
    pairs += [(lambda x, m=m: M.psi_cde(x, m), lambda x, m=m: ref_cde(x, m))
              for m in law.m_support]
    if law.has_l:
        pairs += [(M.psi_nie_r_L, ref_nie_r_L), (M.psi_nie_rl, ref_nie_rl)]
    return pairs


def _agree(got, want) -> bool:
    """The same degenerate-stratum message, or values within TOL."""
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return np.shape(got) == np.shape(want) and bool(np.all(np.abs(np.subtract(got, want)) <= TOL))


def _assert_same(law):
    scan = ScanLaw(law)
    for fn, ref in _functional_pairs(law):
        got, want = _outcome(lambda: fn(law)), _outcome(lambda: ref(scan))
        assert _agree(got, want) and type(got) is type(want), (got, want)


# ---------------------------------------------------------------------------
# Laws of three kinds
# ---------------------------------------------------------------------------

SHAPES = st.sampled_from(["basic", "confounded"])


def _model(seed, shape, with_c):
    return M.random_scm(seed, shape, with_c=with_c, c_levels=3, l_levels=3, m_levels=3,
                        y_levels=3)


def _exact(seed, shape, with_c):
    return M.observational_law(_model(seed, shape, with_c))


def _empirical(seed, shape, with_c, n=300):
    return M.empirical_law(M.draw_samples(_model(seed, shape, with_c), n, seed))


def _with_stratum_emptied(law, k):
    """A bootstrap-style law: the table's mass with covariate cell k emptied."""
    mass = law.mass.copy()
    mass[k % mass.shape[0]] = 0.0
    return dataclasses.replace(law, mass=mass / mass.sum())


LAWS = st.one_of(
    st.builds(_exact, st.integers(0, 10**6), SHAPES, st.booleans()),
    st.builds(_empirical, st.integers(0, 10**6), SHAPES, st.booleans()),
    st.builds(
        lambda seed, shape, k: _with_stratum_emptied(_empirical(seed, shape, True), k),
        st.integers(0, 10**6), SHAPES, st.integers(0, 10),
    ),
)


def _levels(support, off):
    return [None, *(support or ()), off]


@settings(deadline=None, max_examples=40)
@given(law=LAWS)
def test_queries_match_pmf_scan(law):
    scan = ScanLaw(law)
    assert law.c_strata() == scan.c_strata()
    assert all(w > 0.0 for _c, w in law.c_strata())
    assert law.total() == sum(law.pmf.values())
    c_keys = [None, *law.c_cells, (99,) * len(law.c_names)]
    for c, a, l, m in itertools.product(
        c_keys, _levels(law.a_support, 7), _levels(law.l_support, 7), _levels(law.m_support, 7)
    ):
        den, num = scan._scan(c, a, l, m)
        assert abs(law.prob(c=c, a=a, l=l, m=m) - den) <= TOL
        if den > 0.0:
            assert abs(law.mean_y(c=c, a=a, l=l, m=m) - num / den) <= TOL
        else:
            with pytest.raises(M.DegenerateStratumError) as err:
                law.mean_y(c=c, a=a, l=l, m=m)
            expected = f"E(Y | c={c!r}, a={a!r}, l={l!r}, m={m!r})"
            assert str(err.value) == f"degenerate stratum: {expected}"
        given_ = {k: v for k, v in (("c", c), ("a", a)) if v is not None}
        of = {k: v for k, v in (("l", l), ("m", m)) if v is not None}
        assert _agree(_outcome(lambda: law.cond_prob(of=of, given=given_)),
                      _outcome(lambda: scan.cond_prob(of=of, given=given_)))


@settings(deadline=None, max_examples=20)
@given(law=LAWS)
def test_level_arrays_broadcast_like_scalar_queries(law):
    a = np.array(law.a_support + (7,))[:, None]
    m = list(law.m_support) + [7]
    for c in law.c_cells:
        probs = law.prob(c=c, a=a, m=m)
        assert probs.shape == (len(a), len(m))
        for (i, ap), (j, mv) in itertools.product(enumerate(a[:, 0].tolist()), enumerate(m)):
            assert probs[i, j] == law.prob(c=c, a=ap, m=mv)
        scalar = [_outcome(lambda ap=ap, mv=mv: law.mean_y(c=c, a=ap, m=mv))
                  for ap in a[:, 0].tolist() for mv in m]
        first_error = next((v for v in scalar if isinstance(v, str)), None)
        assert _agree(_outcome(lambda: law.mean_y(c=c, a=a, m=m)),
                      first_error or np.reshape(scalar, (len(a), len(m))))
    # a sequence of cells broadcasts too: here on a leading axis, one off the table
    cells = [*law.c_cells, (99,) * len(law.c_names)]
    column = [[[c]] for c in cells]
    assert (law.prob(c=column, a=a, m=m) == [law.prob(c=c, a=a, m=m) for c in cells]).all()
    each = [_outcome(lambda c=c: law.mean_y(c=c, a=a, m=m)) for c in cells]
    first_error = next((v for v in each if isinstance(v, str)), None)
    assert _agree(_outcome(lambda: law.mean_y(c=column, a=a, m=m)), first_error or np.stack(each))


def test_pmf_is_read_only_and_empty_strata_are_skipped():
    law = _empirical(3, "confounded", True, n=2000)
    with pytest.raises(TypeError):
        law.pmf[next(iter(law.pmf))] = 1.0
    thinned = _with_stratum_emptied(law, 0)
    gone = law.c_cells[0]
    assert gone not in dict(thinned.c_strata())
    assert all(key[0] != gone for key in thinned.pmf)
    _assert_same(thinned)


# ---------------------------------------------------------------------------
# Degenerate-stratum parity on mutated laws
# ---------------------------------------------------------------------------

def _emptied(law, kind, pick):
    """law with one required cell emptied: an exposure arm within a covariate
    cell, a mediator level within an arm, or a (c, l, a) cell."""
    mass = law.mass.copy()
    k = pick % mass.shape[0]
    arm = law.a_support.index(law.exposure_levels[pick % 2])
    if kind == "arm":
        mass[k, arm] = 0.0
    elif kind == "mediator":
        mass[k, arm, :, pick % mass.shape[3]] = 0.0
    else:
        mass[k, arm, pick % mass.shape[2]] = 0.0
    return dataclasses.replace(law, mass=mass)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    shape=SHAPES,
    with_c=st.booleans(),
    kind=st.sampled_from(["arm", "mediator", "cla"]),
    pick=st.integers(0, 100),
)
def test_functionals_match_scalar_route_on_mutated_laws(seed, shape, with_c, kind, pick):
    law = _emptied(_exact(seed, shape, with_c), kind, pick)
    _assert_same(law)
    if kind != "cla":
        # psi_te needs both arms, psi_nie every mediator level in each arm,
        # within every covariate cell
        with pytest.raises(M.DegenerateStratumError):
            (M.psi_te if kind == "arm" else M.psi_nie)(law)


def test_functionals_match_scalar_route_on_exact_and_empirical_laws():
    for seed in range(8):
        for shape in ("basic", "confounded"):
            _assert_same(_exact(seed, shape, seed % 2 == 0))
            _assert_same(_empirical(seed, shape, seed % 2 == 1, n=400))


# ---------------------------------------------------------------------------
# Batches of replicate laws
# ---------------------------------------------------------------------------

def _covariates_last(ds):
    """The dataset with its covariate columns last: its sorted rows, the key
    order of its law, then interleave the strata."""
    n_c = sum(c not in ("A", "L", "M", "Y") for c in ds.columns)
    cols = [*range(n_c, len(ds.columns)), *range(n_c)]
    return M.Dataset(tuple(ds.columns[i] for i in cols), ds.rows[:, cols])


def _replicates(law, seed, n, count):
    """count resampled mass tables of law, n draws each."""
    p = law.mass.ravel()
    draws = np.random.default_rng(seed).multinomial(n, p / p.sum(), size=count)
    return list(draws.reshape(count, *law.mass.shape) / n)


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10**6),
    shape=SHAPES,
    source=st.sampled_from(["exact", "covariates first", "covariates last"]),
    n=st.integers(20, 300),
    emptied=st.integers(0, 4),
    after=st.integers(1, 3),
    kind=st.sampled_from(["arm", "mediator", "cla"]),
)
def test_batched_functionals_match_per_law_and_scalar_route(seed, shape, source, n, emptied,
                                                            after, kind):
    if source == "exact":
        law = _exact(seed, shape, True)
    else:
        ds = M.draw_samples(_model(seed, shape, True), 400, seed)
        law = M.empirical_law(_covariates_last(ds) if source == "covariates last" else ds)
    masses = _replicates(law, seed, n, 8)
    # a replicate that lacks a stratum, and a degenerate one after it
    thinned = masses[emptied].copy()
    thinned[seed % len(law.c_cells)] = 0.0
    if thinned.sum() > 0.0:
        masses[emptied] = thinned / thinned.sum()
    masses[emptied + after] = _emptied(law.with_mass(masses[emptied + after]), kind, seed).mass
    laws = [law.with_mass(mass) for mass in masses]
    batch = law.with_mass(np.stack(masses))
    for fn, ref in _functional_pairs(law):
        each = [_outcome(lambda x=x: fn(x)) for x in laws]
        assert each == [_outcome(lambda x=x: ref(ScanLaw(x))) for x in laws]
        failed = [i for i, v in enumerate(each) if isinstance(v, str)]
        ok = failed[0] if failed else len(laws)
        if ok:
            assert fn(law.with_mass(np.stack(masses[:ok]))).tolist() == each[:ok]
        if failed:
            with pytest.raises(M.DegenerateStratumError):
                fn(batch)
            with pytest.raises(M.DegenerateStratumError) as err:
                sample._score_batch(fn, batch, ())
            assert str(err.value) == each[failed[0]]


def test_batch_sums_each_law_in_its_own_stratum_order():
    # rows sorted by A first: the cells of the three strata interleave, and
    # emptying a stratum's first cell moves that stratum to the end
    rows = [(a, m, y, c) for a in (0, 1) for m in (0, 1) for y in (0, 1) for c in (0, 1, 2)
            for _ in range(1 + (a + 2 * m + 3 * y + 5 * c) % 7)]
    law = M.empirical_law(M.Dataset(("A", "M", "Y", "C"), np.array(rows)))
    moved = law.mass.copy()
    moved[0, 0, 0, 0, 0] = 0.0                   # the first cell, of stratum c=(0,)
    masses = [law.mass, moved / moved.sum()]
    orders = [[c for c, _w in law.with_mass(mass).c_strata()] for mass in masses]
    assert orders == [[(0,), (1,), (2,)], [(1,), (2,), (0,)]]
    batch = law.with_mass(np.stack(masses))
    for fn, _ref in _functional_pairs(law):
        assert fn(batch).tolist() == [fn(law.with_mass(mass)) for mass in masses]
