"""Convergent engine and Mobius machinery."""

import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polycf import (
    CFLimit,
    CFSpec,
    EulerTriple,
    InvalidInput,
    Mat2,
    PoleInFormula,
    Poly,
    QuadSurd,
    cf_value,
    constant_cf_limit,
    convergents,
    convergents_from_terms,
    euler_partial_value,
    parse_poly,
    product_apply,
    rederive_euler_sum,
    trivial_triple,
    INF,
)
from polycf import mobius
from polycf.algebra import _BATCH
from polycf.mobius import (
    _EXACT_DIV_BITS,
    _IDENTITY,
    _LAST_COLUMN,
    _LEAF,
    _cleared,
    _companion_leaves,
    _companion_product,
    _eval_pair,
    _exact_div,
    _fraction,
    _mat_mul,
    _tree_product,
)

from _reference import (
    outcome,
    python_calls,
    reference_apply,
    reference_cf_value,
    reference_euler_partial_value,
    reference_eval_pair,
    reference_rederive_euler_sum,
    reference_state_at,
)
from _strategies import euler_triples, poly_cfs


# --- worked oracle: 4/11 = 1/(2 + 1/(1 + 1/3)) ---


def test_four_elevenths_explicit():
    cf = CFSpec(b=[1, 1, 1], a=[2, 1, 3])
    assert cf_value(cf, 3) == Fraction(4, 11)
    states = list(convergents(cf))
    assert [s.value for s in states[1:]] == [
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(4, 11),
    ]


def test_four_elevenths_polynomial_route():
    # a(1), a(2), a(3) = 2, 1, 3 interpolated by one quadratic
    a = parse_poly("3/2n^2-11/2n+6")
    assert [a(Fraction(i)) for i in (1, 2, 3)] == [2, 1, 3]
    assert cf_value(CFSpec(b=Poly.one(), a=a), 3) == Fraction(4, 11)


def test_head_and_depth_two():
    # -1/(3 + (-2)/4) = -2/5
    cf = CFSpec(b=parse_poly("-n"), a=parse_poly("n+2"))
    assert cf_value(cf, 2) == Fraction(-2, 5)
    assert cf_value(CFSpec(b=parse_poly("-n"), a=parse_poly("n+2"), head=Fraction(3)), 2) == Fraction(13, 5)


def test_depth_zero_is_head():
    cf = CFSpec(b=Poly.one(), a=Poly.one(), head=Fraction(7, 2))
    assert cf_value(cf, 0) == Fraction(7, 2)


# --- Mat2 case table ---


def test_mobius_cases():
    m = Mat2(1, 2, 3, 4)
    assert reference_apply(m, Fraction(1)) == Fraction(3, 7)
    assert reference_apply(m, Fraction(-4, 3)) is INF  # cz + d = 0
    assert reference_apply(m, INF) == Fraction(1, 3)  # a/c
    assert reference_apply(Mat2(1, 2, 0, 4), INF) is INF  # c = 0
    assert reference_apply(Mat2(5, 0, 0, 5), Fraction(9, 7)) == Fraction(9, 7)  # scalar
    assert reference_apply(Mat2(0, 1, 1, 0), Fraction(0)) is INF


def test_step_matrix_composition():
    # state matrix equals the literal product of step matrices
    rng = random.Random(7)
    bs = [Fraction(rng.randint(1, 9)) for _ in range(12)]
    as_ = [Fraction(rng.randint(-5, 5)) for _ in range(12)]
    prod = Mat2.identity()
    states = list(convergents_from_terms(zip(bs, as_)))
    assert states[0].as_matrix() == prod
    for k, (b, a) in enumerate(zip(bs, as_)):
        prod = prod * Mat2(0, b, 1, a)
        assert states[k + 1].as_matrix() == prod


# --- determinant identity ---


def test_det_identity_fixed():
    cf = CFSpec(b=parse_poly("-n^2"), a=parse_poly("2n+1"))
    prod = Fraction(1)
    for state in convergents(cf):
        n = state.n
        if n > 1:
            prod *= -(-Fraction(n - 1) ** 2)
        lhs = state.p_prev * state.q - state.p * state.q_prev
        assert lhs == prod
        if n >= 30:
            break


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-5, max_value=5).filter(lambda x: x != 0),
            st.fractions(min_value=-5, max_value=5),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_det_identity_random(pairs):
    prod = Fraction(1)
    for state in convergents_from_terms(pairs):
        lhs = state.p_prev * state.q - state.p * state.q_prev
        assert lhs == prod
        if state.n <= len(pairs):
            prod *= -pairs[state.n - 1][0]


# --- truncation and poles ---


def test_truncation_freezes_value():
    cf = CFSpec(b=[2, 3, 0, 5], a=[1, 1, 1, 1])
    states = list(convergents(cf))
    assert states[-1].truncated
    frozen = states[-1].value
    assert frozen == cf_value(cf, 2)
    # any depth past the zero term returns the frozen value
    assert cf_value(cf, 3) == frozen
    assert cf_value(cf, 4) == frozen


def test_zero_b_first_term():
    cf = CFSpec(b=[0], a=[9])
    assert cf_value(cf, 1) == 0


def test_pole_mid_stream_is_not_truncation():
    # b=1, a=0 gives alternating INF / 0 convergents, stream keeps going
    cf = CFSpec(b=Poly.one(), a=Poly.zero())
    states = []
    for s in convergents(cf):
        states.append(s)
        if len(states) == 6:
            break
    vals = [s.value for s in states[1:]]
    assert vals[0] is INF and vals[2] is INF
    assert vals[1] == 0 and vals[3] == 0
    assert not any(s.truncated for s in states)


def test_finite_sequence_ends_stream():
    cf = CFSpec(b=[1, 1], a=[1, 1])
    assert len(list(convergents(cf))) == 3
    with pytest.raises(InvalidInput):
        cf_value(cf, 3)


def test_int_fast_path():
    states = list(convergents_from_terms([(2, 3), (Fraction(1, 2), 1), (4, 5)]))
    assert isinstance(states[1].p, int) and isinstance(states[1].q, int)
    assert isinstance(states[2].p, Fraction)


# --- the product tree against the stream walk ---


def _fields(state):
    return (state.n, state.p_prev, state.p, state.q_prev, state.q, state.truncated)


def _scaled_back(cf, depth):
    """The fields of the state that the tree product of the cleared cf gives
    after its k steps, divided by the powers of L that the clearing puts on
    them."""
    L, cleared = _cleared(cf)
    (p_prev, p, q_prev, q), k, truncated = _companion_product(cleared, depth, _IDENTITY, strip=False)
    Lk = L**k
    return (
        k + 1 + truncated,
        Fraction(p_prev, Lk),
        Fraction(p, Lk * L),
        Fraction(q_prev * L, Lk),
        Fraction(q, Lk),
        truncated,
    )


@settings(max_examples=150, deadline=None)
@given(poly_cfs(), st.integers(0, 300))
def test_tree_state_matches_stream(cf, depth):
    want = reference_state_at(cf, depth)
    assert _scaled_back(cf, depth) == _fields(want)
    assert cf_value(cf, depth) == reference_cf_value(cf, depth)
    for z in (Fraction(0), INF, Fraction(1, 3)):
        assert product_apply(cf, depth, z) == reference_apply(want.as_matrix(), z)


@settings(max_examples=150, deadline=None)
@given(poly_cfs(), st.integers(1, 300))
def test_eval_pair_matches_the_lcm_of_the_stream_fractions(cf, depth):
    got = _eval_pair(cf, depth)
    assert got == reference_eval_pair(cf, depth)
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize("zero_at", [None, 20])
@pytest.mark.parametrize("depth", [0, 1, 15, 16, 17, 33, 100])
def test_tree_state_on_explicit_lists(depth, zero_at):
    # 40 terms, optionally a zero b at term 21: past it the state is the
    # truncated one, past 40 terms without it the sequence is exhausted
    rng = random.Random(depth)
    bs = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for _ in range(40)]
    as_ = [rng.randint(-9, 9) for _ in range(40)]
    if zero_at is not None:
        bs[zero_at] = 0
    cf = CFSpec(b=bs, a=as_)
    try:
        want = _fields(reference_state_at(cf, depth))
    except InvalidInput as exc:
        assert zero_at is None and depth > 40
        with pytest.raises(InvalidInput) as got:
            _scaled_back(cf, depth)
        assert str(got.value) == str(exc) == f"coefficient sequence exhausted after 40 terms, needed {depth}"
    else:
        assert _scaled_back(cf, depth) == want


def test_integral_poly_terms_are_ints():
    # the CF from index 2 on, reindexed to start at 1
    cf = CFSpec(b=parse_poly("-n^6").shift(1), a=parse_poly("34n^3+51n^2+27n+5").shift(1))
    terms = [t for _, t in zip(range(5), cf.terms())]
    assert terms == [(-(i**6), 34 * i**3 + 51 * i**2 + 27 * i + 5) for i in range(2, 7)]
    assert all(type(b) is int and type(a) is int for b, a in terms)
    half = CFSpec(b=parse_poly("1/2n"), a=Poly.x())
    assert [b for (b, _), _ in zip(half.terms(), range(3))] == [Fraction(1, 2), 1, Fraction(3, 2)]


def test_integral_list_and_callable_terms_are_ints():
    # lists and Polys with a denominator are read as Fractions; the integral
    # ones reach the stream and the tree as ints.  A callable is not a
    # coefficient sequence
    half = Fraction(1, 2)
    with pytest.raises(TypeError, match="cannot read a coefficient sequence from function"):
        next(CFSpec(b=lambda i: i, a=[1, 2]).terms())
    for cf, want in (
        (CFSpec(b=[2, Fraction(4, 2), half], a=[Fraction(3), 5, 7]), [(2, 3), (2, 5), (half, 7)]),
        (CFSpec(b=parse_poly("1/2n^2+1/2n"), a=parse_poly("1/2n")), [(1, half), (3, 1), (6, Fraction(3, 2))]),
    ):
        terms = list(itertools.islice(cf.terms(), 3))
        assert terms == want
        assert [type(x) for t in terms for x in t] == [type(x) for t in want for x in t]
        for s in itertools.islice(convergents(CFSpec(b=cf.b, a=[1, 2])), 3):
            assert all(type(x) is int for x in (s.p_prev, s.p, s.q_prev, s.q))


# --- product_apply ---


def test_product_apply_endpoints():
    cf = CFSpec(b=[1, 1, 1], a=[2, 1, 3])
    # at 0: the depth-n convergent; at INF: the previous one
    assert product_apply(cf, 3, Fraction(0)) == Fraction(4, 11)
    assert product_apply(cf, 3, INF) == Fraction(1, 3)
    # applying the tail value reproduces deeper truncations exactly
    tail = Fraction(1, 3)  # value of K_3^3 = 1/3
    assert product_apply(cf, 2, tail) == Fraction(4, 11)


def test_product_apply_at_a_pole_of_the_action():
    # z = -q/q_prev makes q_prev z + q vanish: the action sends z to INF
    for cf in (
        CFSpec(b=parse_poly("-n^6"), a=parse_poly("34n^3+51n^2+27n+5")),
        CFSpec(b=parse_poly("1/2n^2-n"), a=parse_poly("n+1/3")),
    ):
        for depth in (1, 2, 17, 40):
            want = reference_state_at(cf, depth)
            z = Fraction(-want.q, want.q_prev)
            assert product_apply(cf, depth, z) is INF
            assert reference_apply(want.as_matrix(), z) is INF
            # and z shifted off the pole gives the stream's matrix action
            assert product_apply(cf, depth, z + 1) == reference_apply(want.as_matrix(), z + 1)


# --- the tree's tail and exact division ---


def _companion_terms(count, seed):
    rng = random.Random(seed)
    return [(rng.randint(-9, 9) or 1, rng.randint(-9, 9)) for _ in range(count)]


def _leaves(terms):
    """The tree's companion leaves of a list of (b, a) terms, read in
    batches of _BATCH as the library reads them."""
    batches = (terms[lo:lo + _BATCH] for lo in range(0, len(terms), _BATCH))
    return _companion_leaves(([b for b, _ in batch], [a for _, a in batch]) for batch in batches)


_TAILS = [(1, 0, 0, 1), _LAST_COLUMN, (0, 1, 0, 1), (0, 7, 0, -3), (0, 1, 0, 0)]


# every count to 70, then one step either side of half a leaf and of 1 to
# 16 whole leaves (the batch edges among them)
@pytest.mark.parametrize(
    "count",
    list(range(71)) + [_LEAF * 2**k // 2 + d for k in range(6) for d in (-1, 1)],
)
def test_tree_product_times_tail(count):
    terms = _companion_terms(count, count)
    full = _tree_product(_leaves(terms), _IDENTITY, False)
    for tail in _TAILS:
        assert _tree_product(_leaves(terms), tail, False) == _mat_mul(full, tail)


@pytest.mark.parametrize("leaves", [2, 4, 8, 32])
def test_top_merge_multiplies_a_zero_first_column(monkeypatch, leaves):
    # for _LEAF 2^k steps the largest product of the tree, the top merge, is
    # the one with the tail folded in: half its entry products are by 0
    calls = []

    def recording(m, n):
        calls.append((m, n))
        return _mat_mul(m, n)

    def bits(m):
        return max(abs(x).bit_length() for x in m)

    steps = [(-(i**6), 34 * i**3 + 51 * i**2 + 27 * i + 5) for i in range(1, _LEAF * leaves + 1)]
    monkeypatch.setattr(mobius, "_mat_mul", recording)
    got = _tree_product(_leaves(steps), _LAST_COLUMN, False)
    top_left, top_right = max(calls, key=lambda c: min(bits(c[0]), bits(c[1])))
    assert (top_right[0], top_right[2]) == (0, 0)
    assert bits(top_left) > bits(got) // 3
    assert got == _mat_mul(_tree_product(_leaves(steps), _IDENTITY, False), _LAST_COLUMN)


# --- content stripping in the tree ---

APERY = CFSpec(b=parse_poly("-n^6"), a=parse_poly("34n^3+51n^2+27n+5"))


@contextlib.contextmanager
def _forced_strip(stop_bits):
    """Strip every merge whose d entry passes 4 bits, so that small draws
    strip too; a branch stops at a gcd under stop_bits bits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mobius, "_STRIP_BITS", 4)
        mp.setattr(mobius, "_STRIP_STOP_BITS", stop_bits)
        yield


@contextlib.contextmanager
def _tree_gcds(monkeypatch):
    """Collect the gcds that the tree takes: math.gcd on four entries."""
    calls = []
    gcd = math.gcd

    def recording(*args):
        if len(args) == 4:
            calls.append(gcd(*args))
            return calls[-1]
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", recording)
    yield calls
    monkeypatch.setattr(math, "gcd", gcd)


@settings(max_examples=150, deadline=None)
@given(poly_cfs(), st.integers(0, 300), st.sampled_from([0, 8, 64]))
def test_stripped_cf_value_and_product_apply_match_the_stream(cf, depth, stop_bits):
    want = reference_state_at(cf, depth)
    with _forced_strip(stop_bits):
        assert cf_value(cf, depth) == reference_cf_value(cf, depth)
        for z in (Fraction(0), INF, Fraction(1, 3)):
            assert product_apply(cf, depth, z) == reference_apply(want.as_matrix(), z)


@settings(max_examples=150, deadline=None)
@given(euler_triples(), st.integers(0, 300), st.sampled_from([0, 8, 64]))
def test_stripped_euler_routes_match_their_fraction_passes(t, n, stop_bits):
    with _forced_strip(stop_bits):
        assert outcome(euler_partial_value, t, n) == outcome(reference_euler_partial_value, t, n)
        got = outcome(rederive_euler_sum, t.h1, t.h2, n + 1)
        assert got == outcome(reference_rederive_euler_sum, t.h1, t.h2, n + 1)


def test_every_value_reader_strips_at_the_real_threshold(monkeypatch):
    # zeta(2)'s triple h1 = h2 = n^2 at depth 2048: each reader strips, and
    # all three agree with the stream walk
    n2 = parse_poly("n^2")
    t = trivial_triple(n2, n2)
    want = reference_cf_value(CFSpec(b=t.b, a=t.a), 2048)
    for read in (
        lambda: cf_value(CFSpec(b=t.b, a=t.a), 2048),
        lambda: euler_partial_value(t, 2048),
        lambda: rederive_euler_sum(n2, n2, 2049),
    ):
        with _tree_gcds(monkeypatch) as gcds:
            assert read() == want
        assert any(g.bit_length() >= mobius._STRIP_STOP_BITS for g in gcds)


def test_strip_removes_most_of_aperys_content():
    steps = list(itertools.islice(APERY.terms(), 4096))
    raw = _tree_product(_leaves(steps), _LAST_COLUMN, False)
    stripped = _tree_product(_leaves(steps), _LAST_COLUMN, True)
    assert raw[1] * stripped[3] == raw[3] * stripped[1]
    assert raw[3] % stripped[3] == 0 and raw[3] // stripped[3] > 0
    assert max(abs(x).bit_length() for x in stripped) < max(abs(x).bit_length() for x in raw) // 2


def test_strip_stops_on_a_branch_with_little_content(monkeypatch):
    # K n/n: the first gcd of each branch is small (1), so each branch takes
    # one; at depth 4096 that is one per block of about 256 steps
    cf = CFSpec(b=Poly.x(), a=Poly.x())
    with _tree_gcds(monkeypatch) as gcds:
        v = cf_value(cf, 4096)
    assert 0 < len(gcds) <= 4096 // 256
    assert all(g.bit_length() < mobius._STRIP_STOP_BITS for g in gcds)
    with _tree_gcds(monkeypatch) as unstopped:
        monkeypatch.setattr(mobius, "_STRIP_STOP_BITS", 0)
        assert cf_value(cf, 4096) == v
    assert len(unstopped) > len(gcds)


def test_raw_readers_keep_the_unstripped_product():
    depth = 2048
    (p_prev, p, q_prev, q), _, _ = _companion_product(APERY, depth, _IDENTITY, strip=False)
    assert p_prev * q - p * q_prev == math.factorial(depth) ** 6
    want = reference_state_at(APERY, depth)
    assert _eval_pair(APERY, depth) == (want.p, want.q)
    assert (p, q) == (want.p, want.q)


# --- leaf and batch edges ---

# depths _LEAF 2^k +- 1, and around one and two batches of coefficients
_EDGE_DEPTHS = sorted(
    {_LEAF * 2**k + d for k in range(4) for d in (-1, 1)}
    | {m * _BATCH + d for m in (1, 2) for d in (-1, 0, 1)}
)
# the first and last index of a leaf and of a batch
_EDGE_INDICES = [1, 2, _LEAF - 1, _LEAF, _LEAF + 1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH]
X = Poly.x()


@settings(max_examples=40, deadline=None)
@given(poly_cfs(), st.sampled_from(_EDGE_DEPTHS))
def test_cf_value_and_product_apply_match_the_stream_at_leaf_and_batch_edges(cf, depth):
    want = reference_state_at(cf, depth)
    assert cf_value(cf, depth) == reference_cf_value(cf, depth)
    for z in (Fraction(0), INF, Fraction(1, 3)):
        assert product_apply(cf, depth, z) == reference_apply(want.as_matrix(), z)


@settings(max_examples=40, deadline=None)
@given(euler_triples(), st.sampled_from(_EDGE_DEPTHS))
def test_euler_routes_match_their_fraction_passes_at_leaf_and_batch_edges(t, n):
    assert outcome(euler_partial_value, t, n) == outcome(reference_euler_partial_value, t, n)
    got = outcome(rederive_euler_sum, t.h1, t.h2, n + 1)
    assert got == outcome(reference_rederive_euler_sum, t.h1, t.h2, n + 1)


def _routes_agree_with_the_reference(t, n):
    cf = CFSpec(b=t.b, a=t.a)
    assert outcome(cf_value, cf, n) == outcome(reference_cf_value, cf, n)
    want = reference_state_at(cf, n)
    assert product_apply(cf, n, Fraction(1, 3)) == reference_apply(want.as_matrix(), Fraction(1, 3))
    assert outcome(euler_partial_value, t, n) == outcome(reference_euler_partial_value, t, n)
    got = outcome(rederive_euler_sum, t.h1, t.h2, n + 1)
    assert got == outcome(reference_rederive_euler_sum, t.h1, t.h2, n + 1)


@pytest.mark.parametrize("at", _EDGE_INDICES)
def test_a_zero_b_on_a_leaf_or_batch_edge(at):
    # h1 vanishes at `at`: b(at) = 0 truncates the CF, and the summand
    # ratio, the triangular step's alpha and beta vanish there
    t = trivial_triple((X - at) * (X + Fraction(1, 3)), X + Fraction(1, 2))
    for n in (at - 1, at, at + 1):
        _routes_agree_with_the_reference(t, n)


@pytest.mark.parametrize("at", [0, *_EDGE_INDICES, 2 * _BATCH + 1])
def test_an_f_pole_on_a_leaf_or_batch_edge(at):
    # f(at) = 0; euler_partial_value reads f at 0..n+1 and the ratio of
    # step k at f(k + 1), so a pole at k + 1 sits on step k's index
    f = X - at
    t = EulerTriple(X * f, (X + Fraction(1, 2)) * f.shift(-1), f)
    for n in (max(at - 2, 0), max(at - 1, 0), at + 1):
        _routes_agree_with_the_reference(t, n)
    with pytest.raises(PoleInFormula, match=f"^f vanishes at k = {at}$"):
        euler_partial_value(t, at + 1)


@pytest.mark.parametrize("at", [*_EDGE_INDICES, 2 * _BATCH + 1])
def test_an_h2_pole_on_a_leaf_or_batch_edge(at):
    t = trivial_triple(X + Fraction(1, 3), (X - at) * (X + Fraction(1, 2)))
    for n in (max(at - 2, 0), at - 1, at + 1):
        _routes_agree_with_the_reference(t, n)
    for read in (lambda: euler_partial_value(t, at), lambda: rederive_euler_sum(t.h1, t.h2, at + 1)):
        with pytest.raises(PoleInFormula, match=f"^h2 vanishes at k = {at}$"):
            read()


def test_the_first_f_pole_comes_before_any_h2_pole():
    # f vanishes at 300, h2 at 5 and 301: euler_partial_value checks every
    # f(k), k = 0..n+1, before any h2(k), so the pole at 300 is the one
    # raised once n + 1 reaches it, and the one at 5 before that;
    # rederive_euler_sum reads h2 alone
    f = X - 300
    t = EulerTriple(X * f, (X - 5) * f.shift(-1), f)
    for n, k, what in ((298, 5, "h2"), (299, 300, "f"), (2 * _BATCH, 300, "f")):
        assert outcome(euler_partial_value, t, n) == (PoleInFormula, f"{what} vanishes at k = {k}")
        assert outcome(euler_partial_value, t, n) == outcome(reference_euler_partial_value, t, n)
        got = outcome(rederive_euler_sum, t.h1, t.h2, n + 1)
        assert got == outcome(reference_rederive_euler_sum, t.h1, t.h2, n + 1)
        assert got == (PoleInFormula, "h2 vanishes at k = 5")


@pytest.mark.parametrize("length", [_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
def test_an_explicit_sequence_runs_out_across_a_batch(length):
    cf = CFSpec(b=[Fraction(1, 2)] * length, a=list(range(1, length + 1)))
    assert cf_value(cf, length) == reference_cf_value(cf, length)
    for depth in (length + 1, length + _BATCH):
        want = f"coefficient sequence exhausted after {length} terms, needed {depth}"
        assert outcome(cf_value, cf, depth) == outcome(reference_cf_value, cf, depth) == (InvalidInput, want)


def test_deep_routes_make_no_python_call_per_term():
    # a call per term (a step function, a generator or a horner per index)
    # gives 1 or more events per term; the batched leaves give a few per
    # leaf and per batch
    depth = 2048
    t = trivial_triple(parse_poly("n"), parse_poly("n+1/2"))
    f = X * X + X + Fraction(1, 2)
    cubic = EulerTriple(X**3, X**3, f)
    for route in (
        lambda: cf_value(CFSpec(b=t.b, a=t.a), depth),
        lambda: euler_partial_value(t, depth),
        lambda: rederive_euler_sum(t.h1, t.h2, depth + 1),
        lambda: cf_value(CFSpec(b=cubic.b, a=cubic.a), depth),
        lambda: euler_partial_value(cubic, depth),
    ):
        route()
        assert python_calls(route) <= depth // 2


def _exact_div_cases():
    """(n, d) with d | n: quotient and divisor sizes on both sides of the
    crossover, both signs, divisors with large powers of 2."""
    rng = random.Random(11)
    big = _EXACT_DIV_BITS
    sizes = [
        (0, 1), (1, 1), (30, 50), (64, 20000), (65, 20000), (200, big - 1), (200, big),
        (big // 2 - 2, big), (big // 2 - 1, big), (big // 2, big), (big, big), (3 * big, big),
        (big // 4, 4 * big), (3 * big, 8 * big),
    ]
    for qbits, dbits in sizes:
        for shift in (0, 1, 64, 2 * big):
            q = rng.getrandbits(qbits) | (1 << qbits >> 1)
            d = (rng.getrandbits(dbits) | (1 << dbits >> 1)) << shift
            for sq, sd in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                yield sq * q * sd * d, sd * d


def test_exact_division_matches_floor_division():
    for n, d in _exact_div_cases():
        assert _exact_div(n, d) == n // d


def test_fraction_matches_the_constructor():
    rng = random.Random(12)
    for n, d in _exact_div_cases():
        for g in (1, rng.getrandbits(_EXACT_DIV_BITS) | 1, 3 << (3 * _EXACT_DIV_BITS)):
            got = _fraction(n * g, d * g)
            assert type(got) is Fraction and got == Fraction(n * g, d * g)
    # coprime long pairs, a zero numerator, Fraction entries
    p, q = 2**(2 * _EXACT_DIV_BITS) + 1, 2**(2 * _EXACT_DIV_BITS)
    assert _fraction(p, -q) == Fraction(p, -q)
    assert _fraction(0, -q) == Fraction(0)
    assert _fraction(Fraction(1, 2), 3) == Fraction(1, 6)


def test_fraction_takes_one_gcd(monkeypatch):
    calls = []
    gcd = math.gcd

    def counting(*args):
        calls.append(len(args))
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting)
    g = 3**5000
    for p, q in ((6, -4), (7 * g, 2 * g), (2**(2 * _EXACT_DIV_BITS) + 1, -(2**(2 * _EXACT_DIV_BITS)))):
        calls.clear()
        got = _fraction(p, q)
        assert calls == [2]
        assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1
        assert got * q == p
    with pytest.raises(ZeroDivisionError):
        _fraction(5, 0)


# --- constant-coefficient classifier ---


def test_constant_classifier_domain():
    with pytest.raises(InvalidInput):
        constant_cf_limit(3, 0)


def test_constant_classifier_oscillation():
    assert constant_cf_limit(0, 2).kind == CFLimit.OSCILLATES
    assert constant_cf_limit(1, -1).kind == CFLimit.OSCILLATES  # disc = -3
    assert constant_cf_limit(2, -2).kind == CFLimit.OSCILLATES  # disc = -4


def test_constant_classifier_splits_its_radicand_once(monkeypatch):
    from polycf import algebra

    calls = []
    split = algebra.squarefree_split
    monkeypatch.setattr(algebra, "squarefree_split", lambda n: calls.append(n) or split(n))
    A, B = Fraction(3, 2), Fraction(5, 7)
    root = constant_cf_limit(A, B).root
    assert len(calls) == 1
    assert root * root + A * root == B and root.sign() == 1


def test_constant_classifier_golden():
    res = constant_cf_limit(1, 1)
    assert res.kind == CFLimit.CONVERGES
    assert res.root == QuadSurd(Fraction(-1, 2), Fraction(1, 2), 5)
    # mirrored sign picks the other root
    neg = constant_cf_limit(-1, 1)
    assert neg.root == QuadSurd(Fraction(1, 2), Fraction(-1, 2), 5)


def test_constant_classifier_rational_root():
    # A=3, B=4: x^2+3x-4 = (x+4)(x-1), attracting root 1
    res = constant_cf_limit(3, 4)
    assert res.root == QuadSurd(1)
    # convergents of K 4/3 approach 1
    v = cf_value(CFSpec(b=Poly.const(4), a=Poly.const(3)), 40)
    assert abs(v - 1) < Fraction(1, 10**10)


def test_constant_classifier_matches_iteration():
    # exact root is the attracting fixed point: x_{n+1} = B/(A+x_n)
    for A, B in [(1, 1), (-1, 1), (2, 1), (-3, 2), (5, -2)]:
        res = constant_cf_limit(A, B)
        assert res.kind == CFLimit.CONVERGES
        root = res.root
        # root solves x^2 + Ax - B = 0
        assert root * root + root * A - B == QuadSurd(0)
        # and iteration from 0 approaches it
        x = Fraction(0)
        for _ in range(60):
            x = Fraction(B) / (A + x)
        gap = x - root.approx(30)
        assert abs(gap) < Fraction(1, 10**6)


def test_cf_value_rejects_negative_depth():
    cf = CFSpec(b=Poly.one(), a=Poly.one())
    with pytest.raises(InvalidInput, match="depth must be nonnegative"):
        cf_value(cf, -1)
