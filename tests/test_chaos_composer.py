"""The storm composer: bounds, multi-phase composition, operators, JSON."""

import numpy as np
import pytest

from repro.chaos import CORPUS, PARAM_BOUNDS, StormSpec, corpus


# --------------------------------------------------------------------- #
# validation
# --------------------------------------------------------------------- #
def test_defaults_are_quiet_and_valid():
    spec = StormSpec()
    assert spec.quiet()
    scenario = spec.compose(900.0)
    assert scenario.crash_rate is None
    assert scenario.throttle_capacity is None
    assert scenario.initially_poisoned == ()
    assert not scenario.gray_active


@pytest.mark.parametrize("knob,value", [
    ("crash_rate", 0.7),
    ("crash_rate", -0.1),
    ("gray_slowdown", 0.5),
    ("gray_slowdown", 17.0),
    ("correlated_bursts", 7),
    ("poisoned_domains", -1),
    ("gray_onset_frac", 1.5),
])
def test_out_of_bounds_knobs_rejected(knob, value):
    with pytest.raises(ValueError):
        StormSpec(**{knob: value})


def test_non_integer_int_knob_rejected():
    with pytest.raises(ValueError):
        StormSpec(correlated_bursts=1.5, correlated_fraction=0.5)


def test_bursts_without_fraction_rejected():
    with pytest.raises(ValueError, match="kill fraction"):
        StormSpec(correlated_bursts=2, correlated_fraction=0.0)


def test_compose_rejects_bad_horizon():
    with pytest.raises(ValueError):
        StormSpec().compose(0.0)


def test_compose_rejects_a_nan_horizon():
    with pytest.raises(ValueError, match="horizon_s"):
        StormSpec().compose(float("nan"))


# --------------------------------------------------------------------- #
# multi-phase composition
# --------------------------------------------------------------------- #
def test_poisoned_front_gray_back():
    spec = StormSpec(poisoned_domains=2, gray_domains=1, gray_slowdown=4.0)
    scenario = spec.compose(1000.0, fault_domains=4)
    assert scenario.initially_poisoned == (0, 1)
    assert scenario.gray_domains == (3,)
    assert scenario.gray_slowdown == 4.0


def test_gray_window_maps_fracs_to_seconds():
    spec = StormSpec(gray_domains=1, gray_slowdown=3.0,
                     gray_onset_frac=0.25, gray_heal_frac=0.5)
    scenario = spec.compose(1000.0, fault_domains=4)
    assert scenario.gray_onset_s == 250.0
    assert scenario.gray_heal_s == 500.0
    assert scenario.gray_factor(3, 200.0) == 1.0       # before onset
    assert scenario.gray_factor(3, 400.0) == 3.0       # inside window
    assert scenario.gray_factor(3, 800.0) == 1.0       # healed
    assert scenario.gray_factor(0, 400.0) == 1.0       # healthy domain


def test_gray_never_heals_when_frac_zero():
    spec = StormSpec(gray_domains=1, gray_slowdown=2.0, gray_heal_frac=0.0)
    scenario = spec.compose(1000.0, fault_domains=2)
    assert scenario.gray_heal_s is None
    assert scenario.gray_factor(1, 999.0) == 2.0


def test_domain_counts_clamp_to_available_domains():
    spec = StormSpec(poisoned_domains=8, gray_domains=8, gray_slowdown=2.0)
    scenario = spec.compose(600.0, fault_domains=3)
    assert scenario.initially_poisoned == (0, 1, 2)
    assert scenario.gray_domains == (0, 1, 2)


# --------------------------------------------------------------------- #
# operators
# --------------------------------------------------------------------- #
def test_mutation_is_seeded_and_deterministic():
    spec = CORPUS[0]
    a = spec.mutate(np.random.default_rng(3))
    b = spec.mutate(np.random.default_rng(3))
    assert a == b
    assert a != spec.mutate(np.random.default_rng(4)) or a == spec


def test_shrink_candidates_are_strictly_simpler():
    spec = StormSpec(crash_rate=0.4, gray_domains=2, gray_slowdown=6.0)
    candidates = spec.shrink_candidates()
    assert candidates, "an active storm must have shrink candidates"
    for candidate in candidates:
        assert candidate != spec
        # Each candidate quiets or halves exactly one phase knob; none may
        # amplify anything.
        for knob in PARAM_BOUNDS:
            cur, new = getattr(spec, knob), getattr(candidate, knob)
            assert abs(new - PARAM_BOUNDS[knob][0]) <= abs(
                cur - PARAM_BOUNDS[knob][0]
            ) + 1e-12 or knob == "correlated_fraction"


def test_quiet_spec_has_no_shrink_candidates():
    assert StormSpec().shrink_candidates() == []


def test_shrinking_bursts_to_zero_repairs_fraction():
    spec = StormSpec(correlated_bursts=2, correlated_fraction=0.5)
    candidates = spec.shrink_candidates()
    for candidate in candidates:
        if candidate.correlated_bursts == 0:
            assert candidate.correlated_fraction == 0.0


# --------------------------------------------------------------------- #
# serialization
# --------------------------------------------------------------------- #
def test_round_trip_identity():
    for spec in CORPUS:
        assert StormSpec.from_dict(spec.to_dict()) == spec


def test_from_dict_rejects_unknown_keys():
    payload = StormSpec().to_dict()
    payload["surprise"] = 1
    with pytest.raises(ValueError, match="unknown StormSpec keys"):
        StormSpec.from_dict(payload)


def test_from_dict_revalidates_bounds():
    payload = StormSpec().to_dict()
    payload["crash_rate"] = 0.99
    with pytest.raises(ValueError, match="crash_rate"):
        StormSpec.from_dict(payload)


def test_corpus_is_valid_and_distinctly_named():
    names = [spec.name for spec in CORPUS]
    assert len(set(names)) == len(names)
    for spec in CORPUS:
        assert not spec.quiet()
        spec.compose(900.0)  # must be constructible
    fresh = corpus()
    fresh.append(StormSpec(name="extra"))
    assert len(CORPUS) == len(fresh) - 1  # the tuple is not aliased
