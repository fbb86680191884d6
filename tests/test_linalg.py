"""The one sort kernel, linalg.stable_order, and the equal-key sums formed on
it, against a stable argsort: property tests on drawn keys, and every
verifier that sums keys, run on the benchmark workloads' inputs with the
kernel and with the stable argsort put in its place; and the one thin SVD
of a span, linalg.thin_span, against the orthonormal basis and the
pseudo-inverse it replaces."""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gtlie import algebra, autos, gtrep, linalg
from gtlie.gtrep import GeneratorRep, HighestWeight
from gtlie.linalg import PACKED_SORT_MIN_KEYS, Entries, stable_order, summed
from oracles import copied_digest, lexsorted_doubled_entries, orthonormal_span, stable_argsort_order, stable_summed

INT64 = st.integers(-(2**63), 2**63 - 1)
# Sizes on both sides of the cut between the stable argsort and the packed sort.
AT_THE_CUT = st.integers(PACKED_SORT_MIN_KEYS - 2, PACKED_SORT_MIN_KEYS + 2)
# Few distinct keys (many duplicates), negative and wide keys, and the whole
# int64 range, where most spans leave no room for the position bits; short
# lists, and arrays at the cut.
KEYS = st.one_of(
    st.lists(st.integers(-4, 4), max_size=80).map(lambda k: np.array(k, dtype=np.int64)),
    st.lists(st.integers(-(2**40), 2**40), max_size=40).map(lambda k: np.array(k, dtype=np.int64)),
    st.lists(INT64, max_size=20).map(lambda k: np.array(k, dtype=np.int64)),
    hnp.arrays(np.int64, AT_THE_CUT, elements=st.integers(-4, 4)),
    hnp.arrays(np.int64, AT_THE_CUT, elements=st.integers(-(2**52), 2**52)),
    hnp.arrays(np.int64, AT_THE_CUT, elements=INT64),
)
VALUES = {
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "complex": st.complex_numbers(allow_nan=True, allow_infinity=True),
}


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300)
@given(KEYS)
@example(np.zeros(0, dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.array([0, 2**62, 5], dtype=np.int64))
@example(np.array([-(2**63), 2**63 - 1, 0, -(2**63)], dtype=np.int64))
def test_stable_order_is_the_stable_argsort(keys):
    got, want = stable_order(keys), stable_argsort_order(keys)
    assert same(got[0], want[0]) and same(got[1], want[1])


@settings(max_examples=300)
@given(st.data(), KEYS, st.sampled_from(sorted(VALUES)))
def test_summed_is_the_stable_argsort_sum(data, keys, kind):
    values = data.draw(hnp.arrays(np.dtype(kind), keys.size, elements=VALUES[kind]))
    with np.errstate(all="ignore"):  # inf - inf and overflow, the same on both sides
        got, want = summed(keys, values), stable_summed(keys, values)
    assert same(got[0], want[0]) and same(got[1], want[1])


# Bits of the positions of PACKED_SORT_MIN_KEYS keys.
BITS = (PACKED_SORT_MIN_KEYS - 1).bit_length()


@pytest.mark.parametrize(
    "keys, argsorts",
    [
        ([0, 2 ** (63 - BITS) - 1, 5, 0], 0),  # the largest packed key is 2^63 - 1
        ([0, 2 ** (63 - BITS), 5, 0], 1),
        ([0, 2**62, 5], 1),
        ([-(2**63), 2**63 - 1], 1),
        ([2**63 - 1], 0),
    ],
)
def test_only_a_span_without_room_for_the_positions_takes_the_argsort(monkeypatch, keys, argsorts):
    # the keys repeated up to the cut: the packed sort's smallest input
    keys = np.resize(np.array(keys, dtype=np.int64), PACKED_SORT_MIN_KEYS)
    want = stable_argsort_order(keys)
    calls, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(kw) or argsort(*a, **kw))
    got = stable_order(keys)
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert calls == [{"kind": "stable"}] * argsorts


@pytest.mark.parametrize("size", [0, 1, PACKED_SORT_MIN_KEYS - 1])
def test_fewer_keys_than_the_cut_take_the_argsort(monkeypatch, size):
    keys = np.arange(size, dtype=np.int64) % 7
    want = stable_argsort_order(keys)
    calls, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(kw) or argsort(*a, **kw))
    got = stable_order(keys)
    assert same(got[0], want[0]) and same(got[1], want[1])
    assert calls == [{"kind": "stable"}]


# -- the relation kernel against dense products --------------------------------


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(1, 6), st.sampled_from(["float", "complex"]), st.sampled_from([1, 8, 1 << 15]),
       st.data())
def test_relation_sums_are_the_dense_relation_residuals(count, d, kind, block, data):
    # random sparse X (real or complex), random triples with a < b, some
    # repeated, and output rows split into blocks of about `block` terms
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    mats = rng.normal(size=(count, d, d)) * (rng.random((count, d, d)) < density)
    if kind == "complex":
        mats = mats + 1j * rng.normal(size=mats.shape) * (mats != 0)
    pairs = [(a, b, l) for a in range(count) for b in range(a + 1, count) for l in range(count)]
    triples = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    a, b, l = (np.array(x, dtype=np.int64) for x in zip(*triples)) if triples else np.zeros((3, 0), dtype=np.int64)
    f = rng.normal(size=a.size) + (1j * rng.normal(size=a.size) if kind == "complex" else 0)
    want = np.zeros((count, count, d, d), dtype=np.result_type(mats, f))
    for x in range(count):
        for y in range(x + 1, count):
            want[x, y] = mats[x] @ mats[y] - mats[y] @ mats[x]
    for x, y, z, c in zip(a, b, l, f):
        want[x, y] -= c * mats[z]
    with mock.patch.object(linalg, "TERMS_PER_BLOCK", block):
        parts = list(linalg.relation_sums(Entries.of(mats), count, a, b, l, f))
    assert all(np.all(np.diff(k) > 0) for k, _ in parts)  # ascending in each block
    keys = np.concatenate([k for k, _ in parts])
    sums = np.concatenate([v for _, v in parts])
    assert np.unique(keys).size == keys.size  # blocks hold disjoint rows
    got = np.zeros(count * count * d * d, dtype=complex)
    got[keys] = sums
    got = got.reshape(want.shape)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * (1 + np.abs(want).max(initial=0.0))
    # no relation sums a pair (a, b) with a >= b other than to zero
    lower = ~np.triu(np.ones((count, count), dtype=bool), 1)
    assert not np.any(got[lower])


# -- the same results on real inputs -------------------------------------------

LADDER = [(10, 5, 0), (14, 7, 0), (20, 10, 0), (6, 3, 1, 0)]
CHAIN = (4, 3, 1, 0)


def use_stable_argsort(monkeypatch):
    """Put the stable-argsort oracles in place of summed and stable_order in
    every library module that has them."""
    for name, module in list(sys.modules.items()):
        if name.startswith("gtlie."):
            for attr, oracle in (("summed", stable_summed), ("stable_order", stable_argsort_order)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, oracle)


def tampered(rep: GeneratorRep, at: int, by: float) -> GeneratorRep:
    e = rep.entries
    vals = e.vals.copy()
    vals[at] += by
    return GeneratorRep(rep.n, Entries(e.rows.copy(), e.cols.copy(), vals, e.gids.copy(), e.starts.copy()))


def results() -> list:
    """repr of every Report (as vars) and residual of the summing verifiers,
    and the bytes of every stored table, on the rep_ladder weights (and one
    tampered copy), sl(2..10) and the inner and outer (4,3,1,0) chain."""
    out = []
    for m in LADDER:
        rep = gtrep.build_representation(HighestWeight(len(m), m))
        for r in (rep, tampered(rep, 5, 1e-7)):
            arrays = [*vars(r.entries).values(), *r.sl_entries]
            out.append([a.tobytes() for a in arrays])
            out.append(repr((vars(gtrep.verify_commutation(r)), gtrep.verify_transpose(r), gtrep.verify_sl_trace(r))))
    for n in range(2, 11):
        out.append(repr(vars(algebra.check_jacobi(algebra.sl_algebra(n)))))
    hw = HighestWeight(len(CHAIN), CHAIN)
    rep, sl = gtrep.build_representation(hw), algebra.sl_algebra(hw.n)
    for aut, sim in ((autos.auto_inner(hw.n, 1), autos.simulation_inner(hw, hw.n, 1)),
                     (autos.auto_outer(hw.n), autos.J_matrix(hw))):
        gamma, vgamma = autos.grading_from_automorphism(sl, aut), autos.decompose_rep_space(sim)
        out.append(repr(vars(autos.verify_simulation(rep, aut, sim))))
        out.append(repr(vars(autos.check_compatibility(rep, gamma, vgamma))))
    return out


def test_every_summing_verifier_reports_what_the_stable_argsort_gives(monkeypatch):
    got = results()
    with monkeypatch.context() as patch:
        use_stable_argsort(patch)
        assert gtrep.summed is stable_summed and linalg.stable_order is stable_argsort_order
        want = results()
    assert len(got) == len(want) and all(a == b for a, b in zip(got, want))


@pytest.mark.parametrize("m", [(2, 1, 0), (3, 1, 0)])
def test_doubled_entries_are_those_the_lexsort_orders(m):
    hw = HighestWeight(len(m), m)
    got, want = autos.doubled_rep(hw)[0].entries, lexsorted_doubled_entries(gtrep.build_representation(hw))
    for field in ("rows", "cols", "vals", "gids", "starts"):
        assert same(getattr(got, field), getattr(want, field)), field


def test_digest_hashes_the_bytes_a_copy_would_give():
    a = np.arange(24, dtype=complex).reshape(4, 6) * (1 + 2j)
    assert a[:, ::2].flags.c_contiguous is False
    for x in (a, a[:, ::2], a.T, np.array([1, "x", None], dtype=object), np.zeros((0, 3)), np.array(2.5)):
        assert linalg.digest(x) == copied_digest(x)
    assert linalg.digest(a, "s", (2, 3), a[1:3]) == copied_digest(a, "s", (2, 3), a[1:3])


def test_digesting_a_carrier_grading_copies_no_part():
    # the two parts of d = 1331 hold 27 MiB of complex columns; a tobytes() copy of each peaked at 27 MiB
    vgamma = autos.decompose_rep_space(autos.simulation_inner(HighestWeight(3, (20, 10, 0)), 3, 1))
    tracemalloc.start()
    try:
        got = vgamma.digest
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert got == copied_digest(vgamma.group.orders, *(x for item in vgamma.parts.items() for x in item))


@pytest.mark.parametrize("shape, rank", [((6, 0), 0), ((6, 3), 3), ((6, 4), 2), ((5, 5), 5)])
def test_thin_span_is_the_orthonormal_span_and_the_pseudo_inverse_of_one_svd(shape, rank):
    # U is the reference's orthonormal basis bit for bit; on a full-rank matrix Vh^H S^-1 U^H is its
    # pseudo-inverse, and on a rank-deficient one the cut drops the same values as the basis
    rng = np.random.default_rng(rank)
    mat = (rng.standard_normal((shape[0], rank)) + 1j * rng.standard_normal((shape[0], rank))) \
        @ rng.standard_normal((rank, shape[1]))
    u, inverse = linalg.thin_span(mat)
    assert u.shape == (shape[0], rank) and inverse.shape == (shape[1], rank)
    assert np.array_equal(u, orthonormal_span(mat))
    if rank == shape[1]:
        assert linalg.max_abs(inverse @ u.conj().T - np.linalg.pinv(mat)) <= 1e-12
    assert linalg.max_abs(mat @ inverse - u) <= 1e-12
