"""Acceptance suite: ten exact criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion.

All checks use exact rational arithmetic with zero tolerance.  Random
instances are seeded, so every run checks the same instances.
"""

import itertools
import random

from click.testing import CliRunner

import gen
from impbox import (
    Capacity,
    Permutation,
    bel,
    enumerate_events,
    is_2_monotone,
    is_infty_monotone,
    is_member,
    lower_envelope,
    mobius_inverse,
    mobius_transform,
    pbox_to_interval,
    reconstruct_interval,
    reduced_permutation_set,
    upper_envelope,
)
from impbox.cli import main as cli_main
from impbox.convert import interval_to_sigma_pbox
from impbox.interval import event_bounds
from impbox.interval import to_polytope as interval_polytope
from impbox.pbox import (
    lower_prob,
    to_polytope,
    to_random_set,
)
from impbox.possibility import contains, to_possibility_pair
from impbox.randomset import to_interval
from conftest import EXPERT_MASSES, PI_LOW, PI_UPP, SPACE6
from reference import algorithm1, lower_prob_via_possibility


def _passed(n, message):
    print(f"criterion {n}: PASS - {message}")


def _random_pboxes(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        yield gen.rand_pbox(
            rng, gen.SPACES[rng.randint(2, max_n)], ties=rng.random() < 0.5
        )


def test_criterion_01_possibility_pair_decomposition(expert_pbox):
    pi_upp, pi_low = to_possibility_pair(expert_pbox)
    assert pi_upp.pi == PI_UPP
    assert pi_low.pi == PI_LOW
    _passed(1, "possibility-pair decomposition matches the worked example")


def test_criterion_02_random_set_transform(expert_pbox):
    assert dict(to_random_set(expert_pbox).focal) == EXPERT_MASSES
    assert dict(algorithm1(expert_pbox).focal) == EXPERT_MASSES
    _passed(2, "both random-set constructions give the six expected masses")


def test_criterion_03_three_way_lower_probability(expert_pbox):
    ms = to_random_set(expert_pbox)
    poly = to_polytope(expert_pbox)
    for event in enumerate_events(SPACE6):
        value = lower_prob(expert_pbox, event)
        assert value == bel(ms, event)
        assert value == lower_prob_via_possibility(expert_pbox, event)
        assert value == lower_envelope(poly, event).value
    count = 0
    for pb in _random_pboxes(101, 200, 6):
        ms = to_random_set(pb)
        poly = to_polytope(pb)
        for event in enumerate_events(pb.space):
            value = lower_prob(pb, event)
            assert value == bel(ms, event)
            assert value == lower_prob_via_possibility(pb, event)
            assert value == lower_envelope(poly, event).value
        count += 1
    assert count == 200
    _passed(3, "lower probability agrees across formula, random set and oracle")


def test_criterion_04_membership_equivalence(expert_pbox):
    rng = random.Random(103)
    boxes = [expert_pbox] + list(_random_pboxes(107, 50, 6))
    for pb in boxes:
        poly = to_polytope(pb)
        pi_upp, pi_low = to_possibility_pair(pb)
        for _ in range(1000):
            p = gen.rand_probability(rng, pb.space)
            assert is_member(poly, p) == (
                contains(pi_upp, p) and contains(pi_low, p)
            )
    _passed(4, "polytope membership equals containment in both possibility sets")


def test_criterion_05_interval_event_bounds_vs_oracle():
    rng = random.Random(109)
    for _ in range(100):
        sp = gen.SPACES[rng.randint(2, 5)]
        iv = gen.rand_reachable_interval(rng, sp)
        poly = interval_polytope(iv)
        table = []
        for event in enumerate_events(sp):
            lo, hi = event_bounds(iv, event)
            assert lo == lower_envelope(poly, event).value
            assert hi == upper_envelope(poly, event).value
            table.append(lo)
        assert is_2_monotone(Capacity(sp, table))
    _passed(5, "interval event bounds match the oracle and are 2-monotone")


def test_criterion_06_interval_reconstruction():
    rng = random.Random(113)
    for _ in range(100):
        n = rng.randint(2, 5)
        sp = gen.SPACES[n]
        iv = gen.rand_reachable_interval(rng, sp)
        full = [Permutation(p) for p in itertools.permutations(range(n))]
        out = reconstruct_interval(iv, full)
        assert (out.lower, out.upper) == (iv.lower, iv.upper)
        reduced = reduced_permutation_set(sp)
        assert len(reduced) == (n + 1) // 2
        out = reconstruct_interval(iv, reduced)
        assert (out.lower, out.upper) == (iv.lower, iv.upper)
    # outer-approximation chain, via oracle witnesses of the inner set
    for _ in range(20):
        n = rng.randint(2, 4)
        sp = gen.SPACES[n]
        iv = gen.rand_reachable_interval(rng, sp)
        sigma = gen.rand_permutation(rng, sp)
        pb = interval_to_sigma_pbox(iv, sigma)
        outer = pbox_to_interval(pb)
        iv_poly = interval_polytope(iv)
        pb_poly = to_polytope(pb)
        outer_poly = interval_polytope(outer)
        for event in enumerate_events(sp):
            member = lower_envelope(iv_poly, event).witness
            assert is_member(pb_poly, member)
            assert is_member(outer_poly, member)
    _passed(6, "interval reconstruction is exact; round trips only widen")


def test_criterion_07_mobius_machinery():
    rng = random.Random(127)
    for _ in range(200):
        c = gen.rand_capacity(rng, gen.SPACES[rng.randint(1, 5)])
        assert mobius_inverse(mobius_transform(c)) == c
        masses = mobius_transform(c).masses
        assert is_infty_monotone(c) == all(m >= 0 for m in masses)
    for _ in range(20):
        sp = gen.SPACES[rng.randint(2, 4)]
        c = gen.rand_capacity(rng, sp, denom=6)
        assert is_2_monotone(c) == gen.is_k_monotone_bruteforce(c, 2)
        if is_infty_monotone(c):
            assert gen.is_k_monotone_bruteforce(c, 3)
    _passed(7, "Mobius roundtrip and monotonicity classification verified")


def test_criterion_08_possibility_axioms():
    rng = random.Random(131)
    from impbox.possibility import (
        _as_pbox,
        necessity,
        possibility,
        to_random_set as poss_to_random_set,
    )
    from impbox.randomset import contour

    for _ in range(200):
        sp = gen.SPACES[rng.randint(2, 5)]
        d = gen.rand_possibility(rng, sp)
        events = list(enumerate_events(sp))
        for a in events:
            for b in events:
                assert necessity(d, a & b) == min(necessity(d, a), necessity(d, b))
                assert possibility(d, a | b) == max(
                    possibility(d, a), possibility(d, b)
                )
        assert contour(poss_to_random_set(d)) == d.pi
        poly = to_polytope(_as_pbox(d))  # the p-box's credal set
        for _ in range(20):
            p = gen.rand_probability(rng, sp)
            assert contains(d, p) == is_member(poly, p)
    _passed(8, "necessity/possibility axioms, contour roundtrip and membership")


def test_criterion_09_cross_module_interval(expert_pbox, expert_mass):
    a = pbox_to_interval(expert_pbox)
    b = to_interval(expert_mass)
    assert (a.lower, a.upper) == (b.lower, b.upper)
    _passed(9, "p-box and random-set singleton envelopes coincide exactly")


def test_criterion_10_cli_golden(tmp_path):
    from test_cli import EXPECTED_MASS_OUTPUT, EXPERT_TEXT

    path = tmp_path / "expert.json"
    path.write_text(EXPERT_TEXT)
    runner = CliRunner()

    result = runner.invoke(cli_main, ["convert", str(path), "--to", "mass"])
    assert result.exit_code == 0
    assert result.output == EXPECTED_MASS_OUTPUT

    result = runner.invoke(
        cli_main, ["query", str(path), "--event", "x3,x4,x5", "--bound", "lower"]
    )
    assert result.exit_code == 0
    assert result.output == "1/5 = 0.2\n"

    result = runner.invoke(cli_main, ["verify", str(path)])
    assert result.exit_code == 0
    assert result.output == "64/64 events agree\n"
    _passed(10, "CLI outputs are byte-identical with the stated exit codes")
