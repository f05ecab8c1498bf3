import math

import numpy as np
import pytest

from tvmask.masking import MaskPolicy, build_batch
from tvmask.schedule import (
    ScheduleKind,
    ScheduleSpec,
    expected_mass,
    lr_at,
    ratio_at,
    schedule_rows,
)

from conftest import make_sequence

ALL_KINDS = list(ScheduleKind)


def formula(kind, p, T, t):
    """Independent restatement of each schedule's closed form (test oracle)."""
    if kind is ScheduleKind.FIXED:
        return p
    if kind is ScheduleKind.LINEAR:
        return (1 - t / T) * 2 * p
    if kind is ScheduleKind.COSINE:
        return (1 + math.cos(math.pi * t / T)) * p + 0.02
    if kind is ScheduleKind.ASCENDING:
        return (t / T) * 2 * p
    raise AssertionError(kind)


def test_linear_endpoints_exact():
    spec = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=200000)
    assert abs(ratio_at(spec, 0) - 0.30) < 1e-12
    assert abs(ratio_at(spec, spec.T) - 0.0) < 1e-12


def test_cosine_endpoints_exact():
    spec = ScheduleSpec(ScheduleKind.COSINE, p=0.15, T=200000)
    assert abs(ratio_at(spec, 0) - 0.32) < 1e-12
    assert abs(ratio_at(spec, spec.T) - 0.02) < 1e-12


def test_cosine_midpoint():
    spec = ScheduleSpec(ScheduleKind.COSINE, p=0.15, T=1000)
    assert abs(ratio_at(spec, 500) - 0.17) < 1e-12


def test_fixed_is_constant():
    spec = ScheduleSpec(ScheduleKind.FIXED, p=0.15, T=100)
    assert all(ratio_at(spec, t) == 0.15 for t in range(101))


def test_other_kind_endpoints():
    p, T = 0.15, 1000
    up = ScheduleSpec(ScheduleKind.ASCENDING, p=p, T=T)
    assert ratio_at(up, 0) == 0.0
    assert ratio_at(up, T) == pytest.approx(2 * p, abs=1e-15)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matches_closed_form(kind):
    spec = ScheduleSpec(kind, p=0.2, T=777)
    for t in range(0, 778, 7):
        expected = max(formula(kind, 0.2, 777, t), spec.floor)
        assert ratio_at(spec, t) == pytest.approx(expected, abs=1e-15)


def test_symmetry_linear_and_cosine():
    T = 4096
    lin = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=T)
    cos = ScheduleSpec(ScheduleKind.COSINE, p=0.15, T=T)
    for t in range(T + 1):
        assert abs(ratio_at(lin, t) + ratio_at(lin, T - t) - 0.30) < 1e-12
        assert abs(ratio_at(cos, t) + ratio_at(cos, T - t) - 0.34) < 1e-12


@pytest.mark.parametrize("kind", [ScheduleKind.COSINE, ScheduleKind.LINEAR])
def test_decay_kinds_non_increasing(kind):
    spec = ScheduleSpec(kind, p=0.25, T=500)
    ratios = [ratio_at(spec, t) for t in range(501)]
    assert all(a >= b - 1e-15 for a, b in zip(ratios, ratios[1:]))


def test_expected_mass_linear_closed_form():
    spec = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=1000)
    assert expected_mass(spec) == pytest.approx(0.15 * 1001 / 1000, abs=1e-9)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_expected_mass_matches_brute_force(kind):
    p, T = 0.15, 1000
    spec = ScheduleSpec(kind, p=p, T=T)
    brute = sum(max(formula(kind, p, T, t), spec.floor) for t in range(T)) / T
    assert expected_mass(spec) == pytest.approx(brute, abs=1e-12)


def test_expected_mass_fixed():
    assert expected_mass(ScheduleSpec(ScheduleKind.FIXED, p=0.15, T=37)) == 0.15


def test_linear_mass_approaches_p():
    for T in (10, 100, 10000):
        spec = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=T)
        assert abs(expected_mass(spec) - 0.15) <= 0.15 * 2 / T


def test_floor_clamps():
    spec = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=100, floor=0.05)
    assert ratio_at(spec, 100) == 0.05
    assert ratio_at(spec, 0) == pytest.approx(0.30)
    # the floor defaults to 0 for every kind; cosine's 0.02 is its offset
    cos = ScheduleSpec(ScheduleKind.COSINE, p=0.15, T=100)
    assert cos.floor == 0.0
    assert ratio_at(cos, 100) == pytest.approx(0.02)
    lin = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=100)
    assert lin.floor == 0.0


def test_ratio_clamps_to_one(letters_vocab):
    # a decaying kind starts at 2p, cosine at 2p + 0.02: at p 0.5 both clamp to 1,
    # a ratio mask plans take, and every body piece of every row is masked
    for kind in (ScheduleKind.LINEAR, ScheduleKind.COSINE):
        spec = ScheduleSpec(kind, p=0.5, T=10)
        assert ratio_at(spec, 0) == 1.0, kind
        assert max(r for _, r in schedule_rows(spec)) == 1.0, kind
    seqs = [make_sequence(n=12, n_special_tail=k) for k in (1, 3, 5)]
    special = np.stack([s.special_mask for s in seqs])
    plan = build_batch(np.stack([s.token_ids for s in seqs]), np.stack([s.pos_ids for s in seqs]),
                       special, ratio_at(spec, 0), MaskPolicy(), letters_vocab,
                       np.random.default_rng(0))
    masked = np.zeros_like(special)
    masked[plan.rows, plan.cols] = True
    np.testing.assert_array_equal(masked, ~special)


def test_step_out_of_range():
    spec = ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=10)
    with pytest.raises(ValueError):
        ratio_at(spec, -1)
    with pytest.raises(ValueError):
        ratio_at(spec, 11)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(ScheduleKind.LINEAR, p=0.0, T=10)
    with pytest.raises(ValueError):
        ScheduleSpec(ScheduleKind.LINEAR, p=0.6, T=10)
    with pytest.raises(ValueError):
        ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=0)
    with pytest.raises(ValueError):
        ScheduleSpec(ScheduleKind.LINEAR, p=0.15, T=10, floor=0.30)


def test_schedule_rows_covers_inclusive_range():
    spec = ScheduleSpec(ScheduleKind.COSINE, p=0.15, T=50)
    rows = list(schedule_rows(spec))
    assert len(rows) == 51
    assert rows[0] == (0, pytest.approx(0.32))
    assert rows[-1] == (50, pytest.approx(0.02))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_lr_mirrors_ratio_shape(kind):
    # with no warmup, lr / base_lr is the ratio with cosine's offset removed,
    # over its peak, wherever the floor and the clamp at 1 leave the ratio alone
    base = 3e-4
    offset = 0.02 if kind is ScheduleKind.COSINE else 0.0
    checked = 0
    for p in (0.05, 0.15, 0.5):
        peak = p if kind is ScheduleKind.FIXED else 2 * p
        for T in (1, 7, 100, 1001):
            spec = ScheduleSpec(kind, p=p, T=T)
            for t in range(T + 1):
                r = ratio_at(spec, t)
                if not spec.floor < r < 1.0:
                    continue
                assert lr_at(t, base, 0, T, kind) / base == pytest.approx(
                    (r - offset) / peak, abs=1e-12), (p, T, t)
                checked += 1
    assert checked > 2000


def test_cosine_floor_never_binds():
    # cosine ends at its 0.02 offset, so a 0.02 floor changes no ratio
    for p in np.linspace(0.011, 0.5, 25):
        for T in (1, 2, 3, 7, 100, 997):
            at_zero = ScheduleSpec(ScheduleKind.COSINE, p=p, T=T)
            at_offset = ScheduleSpec(ScheduleKind.COSINE, p=p, T=T, floor=0.02)
            assert at_zero.floor == 0.0
            assert list(schedule_rows(at_zero)) == list(schedule_rows(at_offset)), (p, T)
            assert expected_mass(at_zero) == expected_mass(at_offset), (p, T)
