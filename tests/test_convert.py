import itertools
import random
from fractions import Fraction as F

import pytest

import gen
from impbox import (
    FiniteSpace,
    NotReachableError,
    Permutation,
    ProbabilityInterval,
    from_nested_sets,
    interval_to_sigma_pbox,
    is_member,
    lower_envelope,
    pbox_to_interval,
    reconstruct_interval,
    reduced_permutation_set,
)
from impbox.interval import to_polytope as interval_polytope
from impbox.pbox import to_polytope as pbox_polytope
from impbox.space import enumerate_events
from reference import covers_first_or_last


@pytest.fixture
def interval3():
    sp = FiniteSpace(["x1", "x2", "x3"])
    return ProbabilityInterval(
        sp,
        [F(1, 10), F(1, 5), F(3, 10)],
        [F(2, 5), F(1, 2), F(3, 5)],
    )


def test_sigma_pbox_from_interval(interval3):
    pb = interval_to_sigma_pbox(interval3, Permutation.identity(3))
    assert pb.f_lower == (F(1, 10), F(2, 5), F(1))
    assert pb.f_upper == (F(2, 5), F(7, 10), F(1))


def test_sigma_pbox_two_elements():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(1, 5), F(3, 10)], [F(7, 10), F(4, 5)])
    pb = interval_to_sigma_pbox(iv, Permutation.identity(2))
    assert pb.f_lower[0] == F(1, 5)
    assert pb.f_upper[0] == F(7, 10)


def test_sigma_pbox_point_interval():
    sp = FiniteSpace(["x1", "x2", "x3"])
    p = [F(1, 6), F(1, 3), F(1, 2)]
    iv = ProbabilityInterval(sp, p, p)
    pb = interval_to_sigma_pbox(iv, Permutation.identity(3))
    assert pb.f_lower == pb.f_upper == (F(1, 6), F(1, 2), F(1))


def test_sigma_pbox_requires_reachability():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(1, 5), F(1, 10)], [F(1, 2), F(3, 5)])
    with pytest.raises(NotReachableError):
        interval_to_sigma_pbox(iv, Permutation.identity(2))


def test_sigma_pbox_has_one_level_per_rank():
    rng = random.Random(97)
    for k in range(60):
        sp = gen.SPACES[rng.randint(2, 6)]
        if k == 0:  # vacuous: every proper prefix has bounds [0, 1]
            iv = ProbabilityInterval(sp, [F(0)] * sp.size, [F(1)] * sp.size)
        else:  # a coarse grid makes equal neighbouring prefix bounds common
            iv = gen.rand_reachable_interval(rng, sp, denom=rng.choice([2, 4, 20]))
        sigma = gen.rand_permutation(rng, sp)
        pb = interval_to_sigma_pbox(iv, sigma)
        assert pb.block_masks == tuple(1 << i for i in sigma.order)
        assert from_nested_sets(sp, pb.levels()) == pb


def test_pbox_to_interval_on_expert_pbox(expert_pbox):
    iv = pbox_to_interval(expert_pbox)
    assert iv.lower == (F(0), F(0), F(0), F(0), F(0), F(1, 10))
    assert iv.upper == (F(3, 10), F(3, 10), F(7, 10), F(7, 10), F(7, 10), F(1, 2))


def test_pbox_to_interval_vacuous():
    sp = FiniteSpace(["x1", "x2"])
    from impbox import from_functions

    pb = from_functions(sp, [F(0), F(1)], [F(1), F(1)])
    iv = pbox_to_interval(pb)
    assert iv.lower == (F(0), F(0)) and iv.upper == (F(1), F(1))


def test_pbox_to_interval_point():
    sp = FiniteSpace(["x1", "x2", "x3"])
    p = [F(1, 6), F(1, 3), F(1, 2)]
    iv0 = ProbabilityInterval(sp, p, p)
    pb = interval_to_sigma_pbox(iv0, Permutation.identity(3))
    iv = pbox_to_interval(pb)
    assert iv.lower == iv.upper == tuple(p)


def test_reconstruct_two_elements_single_sigma():
    sp = FiniteSpace(["x1", "x2"])
    iv = ProbabilityInterval(sp, [F(1, 5), F(3, 10)], [F(7, 10), F(4, 5)])
    out = reconstruct_interval(iv, [Permutation.identity(2)])
    assert (out.lower, out.upper) == (iv.lower, iv.upper)


def test_reconstruct_over_all_permutations():
    rng = random.Random(71)
    for _ in range(15):
        n = rng.randint(2, 4)
        sp = gen.SPACES[n]
        iv = gen.rand_reachable_interval(rng, sp)
        sigmas = [Permutation(p) for p in itertools.permutations(range(n))]
        out = reconstruct_interval(iv, sigmas)
        assert (out.lower, out.upper) == (iv.lower, iv.upper)


def test_partial_coverage_can_be_strictly_outer():
    sp = FiniteSpace(["x1", "x2", "x3"])
    iv = ProbabilityInterval(
        sp, [F(1, 10), F(1, 5), F(3, 10)], [F(2, 5), F(1, 2), F(3, 5)]
    )
    # x2 is neither first nor last: its bounds can only loosen
    out = reconstruct_interval(iv, [Permutation.identity(3)])
    assert out.lower[1] <= iv.lower[1] and out.upper[1] >= iv.upper[1]
    assert all(lo <= l for lo, l in zip(out.lower, iv.lower))
    assert all(up >= u for up, u in zip(out.upper, iv.upper))


def test_reduced_set_sizes_and_coverage():
    for n in (1, 2, 3, 4, 5, 6, 7):
        sp = gen.SPACES[n]
        sigmas = reduced_permutation_set(sp)
        assert len(sigmas) == (n + 1) // 2
        assert covers_first_or_last(sp, sigmas)


def test_reduced_set_reconstructs_exactly():
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(2, 5)
        sp = gen.SPACES[n]
        iv = gen.rand_reachable_interval(rng, sp)
        out = reconstruct_interval(iv, reduced_permutation_set(sp))
        assert (out.lower, out.upper) == (iv.lower, iv.upper)


def test_first_and_last_position_exactness():
    rng = random.Random(79)
    for _ in range(25):
        n = rng.randint(2, 5)
        sp = gen.SPACES[n]
        iv = gen.rand_reachable_interval(rng, sp)
        sigma = gen.rand_permutation(rng, sp)
        roundtrip = reconstruct_interval(iv, [sigma])
        first, last = sigma.order[0], sigma.order[-1]
        assert roundtrip.lower[first] == iv.lower[first]
        assert roundtrip.upper[first] == iv.upper[first]
        assert roundtrip.lower[last] == iv.lower[last]
        assert roundtrip.upper[last] == iv.upper[last]


def test_outer_approximation_chain_via_oracle_witnesses():
    rng = random.Random(83)
    for _ in range(8):
        n = rng.randint(2, 4)
        sp = gen.SPACES[n]
        iv = gen.rand_reachable_interval(rng, sp)
        sigma = gen.rand_permutation(rng, sp)
        pb = interval_to_sigma_pbox(iv, sigma)
        outer = pbox_to_interval(pb)
        iv_poly = interval_polytope(iv)
        pb_poly = pbox_polytope(pb)
        outer_poly = interval_polytope(outer)
        for event in enumerate_events(sp):
            member = lower_envelope(iv_poly, event).witness
            assert is_member(pb_poly, member)
            assert is_member(outer_poly, member)
