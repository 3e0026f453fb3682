"""General measurement sets, sampling, and initialization-by-measurement."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import aqmkit as aq
from aqmkit import measure
from aqmkit.simulate import ZERO_PROB, pick
from oracles import random_measurement_set, random_state

P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
HALF_I = np.eye(2, dtype=complex) / np.sqrt(2)


def trine_set() -> aq.MeasurementOperatorSet:
    # Three states at polar angles 0, 120, 240 degrees in the X-Z plane.
    ops = []
    for theta in (0.0, 2 * np.pi / 3, 4 * np.pi / 3):
        ket = np.array([np.cos(theta / 2), np.sin(theta / 2)], dtype=complex)
        ops.append(np.sqrt(2 / 3) * np.outer(ket, ket.conj()))
    return aq.MeasurementOperatorSet(1, tuple(ops))


class TestValidation:
    def test_projective_passes(self):
        result = aq.validate_measurement_set(aq.MeasurementOperatorSet(1, (P0, P1)))
        assert result.ok and result.max_deviation < 1e-12

    def test_missing_outcome_fails(self):
        result = aq.validate_measurement_set(aq.MeasurementOperatorSet(1, (P0,)))
        assert not result.ok
        assert abs(result.max_deviation - 1.0) < 1e-12

    def test_identity_halves_pass(self):
        result = aq.validate_measurement_set(aq.MeasurementOperatorSet(1, (HALF_I, HALF_I)))
        assert result.ok

    def test_trine_passes(self):
        assert aq.validate_measurement_set(trine_set()).ok

    def test_check_is_stored_once_with_the_same_bits(self):
        # The stored check is the sum-of-products expression, computed at
        # construction; validating returns it rather than recomputing.
        rng = np.random.default_rng(2)
        for n, k in ((1, 2), (2, 5), (3, 8)):
            ops = random_measurement_set(rng, n, k)
            mset = aq.MeasurementOperatorSet(n, tuple(ops))
            total = sum(op.conj().T @ op for op in mset.operators)
            deviation = float(np.max(np.abs(total - np.eye(2 ** n))))
            assert mset.completeness == aq.CompletenessCheck(True, deviation)
            assert aq.validate_measurement_set(mset) is mset.completeness

    def test_draws_do_not_revalidate(self, monkeypatch):
        mset = aq.MeasurementOperatorSet(1, (P0, P1))

        def refuse(_):
            raise AssertionError("re-validated a stored measurement set")

        monkeypatch.setattr(measure, "validate_measurement_set", refuse)
        for seed in range(4):
            aq.apply_measurement(mset, aq.plus_state(1), seed=seed)

    def test_incomplete_set_is_refused_on_every_use(self):
        mset = aq.MeasurementOperatorSet(1, (P0,))
        for use in (aq.apply_measurement, aq.measurement_branches):
            with pytest.raises(ValueError, match=r"not complete \(deviation 1\.000e\+00\)"):
                use(mset, aq.plus_state(1))
        with pytest.raises(ValueError, match="not complete"):
            aq.synthesize_measurement(mset)


class TestApplication:
    def test_z_basis_on_plus(self):
        mset = aq.MeasurementOperatorSet(1, (P0, P1))
        branches = aq.measurement_branches(mset, aq.plus_state(1))
        assert [round(p, 12) for p, _ in branches] == [0.5, 0.5]
        assert np.allclose(branches[0][1].amplitudes, [1, 0])
        assert np.allclose(branches[1][1].amplitudes, [0, 1])

    def test_identity_proportional_leaves_state(self):
        rng = np.random.default_rng(0)
        psi = aq.StateVector(random_state(rng, 1))
        mset = aq.MeasurementOperatorSet(1, (HALF_I, HALF_I))
        record = aq.apply_measurement(mset, psi, seed=0)
        assert abs(record.probability - 0.5) < 1e-10
        assert aq.fidelity(record.post_state, psi) >= 1 - 1e-12

    def test_trine_on_zero(self):
        branches = aq.measurement_branches(trine_set(), aq.basis_state(1, 0))
        probs = [p for p, _ in branches]
        assert abs(probs[0] - 2 / 3) < 1e-10
        assert abs(probs[1] - 1 / 6) < 1e-10
        assert abs(probs[2] - 1 / 6) < 1e-10

    def test_probabilities_sum_to_one_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(1, 3))
            k = int(rng.integers(1, 6))
            mset = aq.MeasurementOperatorSet(n, tuple(random_measurement_set(rng, n, k)))
            assert aq.validate_measurement_set(mset).ok
            psi = aq.StateVector(random_state(rng, n))
            branches = aq.measurement_branches(mset, psi)
            assert abs(sum(p for p, _ in branches) - 1.0) <= 1e-9
            for prob, post in branches:
                if post is not None:
                    assert abs(np.linalg.norm(post.amplitudes) - 1) < 1e-10

    def test_zero_probability_never_sampled(self):
        mset = aq.MeasurementOperatorSet(1, (P0, P1))
        for seed in range(20):
            record = aq.apply_measurement(mset, aq.basis_state(1, 1), seed=seed)
            assert record.outcome_index == 1

    def test_invalid_set_rejected(self):
        with pytest.raises(ValueError, match="complete"):
            aq.apply_measurement(aq.MeasurementOperatorSet(1, (P0,)), aq.basis_state(1, 0))

    def test_sampling_matches_branch_probabilities(self):
        rng = np.random.default_rng(2)
        mset = aq.MeasurementOperatorSet(1, tuple(random_measurement_set(rng, 1, 3)))
        psi = aq.StateVector(random_state(rng, 1))
        expected = [p for p, _ in aq.measurement_branches(mset, psi)]
        stream = np.random.Generator(np.random.PCG64(123))
        counts = np.zeros(3)
        for _ in range(20000):
            counts[aq.apply_measurement(mset, psi, rng=stream).outcome_index] += 1
        assert np.max(np.abs(counts / 20000 - expected)) < 0.02

    def test_seeded_outcomes_pinned(self):
        # Recorded before the direct and dilated paths shared one sampler: one
        # rng.random() per draw keeps every seeded sequence bit-identical.
        source = np.random.Generator(np.random.PCG64(31))
        draws = np.random.Generator(np.random.PCG64(7))
        direct, dilated = [], []
        for n, k in ((1, 2), (1, 5), (2, 3), (2, 7)):
            mset = aq.MeasurementOperatorSet(n, tuple(random_measurement_set(source, n, k)))
            psi = aq.StateVector(random_state(source, n))
            dilation = aq.synthesize_measurement(mset)
            direct.append([aq.apply_measurement(mset, psi, rng=draws).outcome_index
                           for _ in range(6)])
            dilated.append([dilation.run(psi, rng=draws).outcome_index for _ in range(6)])
        assert direct == [[1, 1, 1, 0, 0, 1], [0, 2, 2, 2, 4, 3], [0, 0, 0, 1, 0, 0],
                          [2, 0, 5, 1, 2, 5]]
        assert dilated == [[0, 1, 1, 0, 0, 0], [2, 4, 0, 0, 2, 0], [0, 0, 0, 0, 1, 0],
                           [3, 5, 5, 5, 0, 3]]

    def test_one_post_state_built_per_draw(self, monkeypatch):
        # Only the drawn branch is normalized; it equals that branch of the
        # deterministic variants bit for bit.
        rng = np.random.default_rng(8)
        mset = aq.MeasurementOperatorSet(2, tuple(random_measurement_set(rng, 2, 8)))
        psi = aq.StateVector(random_state(rng, 2))
        dilation = aq.synthesize_measurement(mset)
        built = []

        class CountingStateVector(aq.StateVector):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(measure, "StateVector", CountingStateVector)
        for draw, branches in ((lambda: aq.apply_measurement(mset, psi, seed=3),
                                aq.measurement_branches(mset, psi)),
                               (lambda: dilation.run(psi, seed=3), dilation.branches(psi))):
            built.clear()
            record = draw()
            assert len(built) == 1
            prob, post = branches[record.outcome_index]
            assert record.probability == prob
            assert np.array_equal(record.post_state.amplitudes, post.amplitudes)


class TestInitializeViaMeasurement:
    def test_zero_from_one(self):
        out = aq.initialize_via_measurement(aq.basis_state(1, 0), aq.basis_state(1, 1))
        assert aq.fidelity(out, aq.basis_state(1, 0)) >= 1 - 1e-12

    def test_plus_from_zero(self):
        out = aq.initialize_via_measurement(aq.plus_state(1), aq.basis_state(1, 0))
        assert aq.fidelity(out, aq.plus_state(1)) >= 1 - 1e-12

    def test_constructed_set_is_complete_two_qubits(self):
        rng = np.random.default_rng(3)
        target = aq.StateVector(random_state(rng, 2))
        from aqmkit.measure import initialization_set
        assert aq.validate_measurement_set(initialization_set(target)).ok

    def test_every_branch_prepares_target(self):
        rng = np.random.default_rng(4)
        target = aq.StateVector(random_state(rng, 1))
        source = aq.StateVector(random_state(rng, 1))
        for seed in range(10):
            out = aq.initialize_via_measurement(target, source, seed=seed)
            assert aq.fidelity(out, target) >= 1 - 1e-12


class FixedDraw:
    """A generator stand-in whose random() returns `u` and counts its calls."""

    def __init__(self, u: float):
        self.u = u
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.u


def _step(x: float, ulps: int) -> float:
    """x moved by `ulps` units in the last place (down when negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Any probability, plus a few ulps around 0, ZERO_PROB, 1/2, 1 - ZERO_PROB and
# 1, up to one ulp above 1 (a squared norm can round there).
PROBABILITIES = st.floats(0.0, 1.0) | st.builds(
    _step, st.sampled_from([0.0, ZERO_PROB, 0.5, 1.0 - ZERO_PROB, 1.0]),
    st.integers(-3, 3)).filter(lambda p: 0.0 <= p <= math.nextafter(1.0, 2.0))
DRAWS = st.floats(0.0, 1.0, exclude_max=True)


class TestOneSampler:
    @given(PROBABILITIES, DRAWS)
    def test_two_outcomes_decide_as_the_bit_rules_did(self, p, u):
        # The rule MEASURE and RESET used: (1 - p1, p1), a dead outcome never
        # drawn, else outcome 1 when u >= p0.
        p0 = 1.0 - p
        circuit_rule = 1 if p0 < ZERO_PROB else 0 if p < ZERO_PROB else int(u >= p0)
        draw = FixedDraw(u)
        assert pick((1.0 - p, p), draw) == circuit_rule
        assert draw.calls == 1
        # The rule MBQC used: (p_plus, 1 - p_plus), outcome 1 when u >= p_plus.
        # It raised when the drawn outcome had probability below 1e-12, so
        # only the draws it kept are compared.
        mbqc_rule = int(u >= p)
        if (p, 1.0 - p)[mbqc_rule] >= 1e-12:
            assert pick((p, 1.0 - p), FixedDraw(u)) == mbqc_rule
