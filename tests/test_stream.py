"""Drifting stream generation: schedules, corruptions, determinism."""

import math
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from flipreset.stream import (
    DEFAULT_SEVERITY_RANGES,
    CorruptionKind,
    Domain,
    DomainSchedule,
    SourceDistribution,
    Transition,
    apply_corruption,
    make_schedule,
    sample_batch,
)

SOURCE = SourceDistribution()


class TestMakeSchedule:
    def test_single_domain_degenerate(self):
        sched = make_schedule(1, 10, Transition(), seed=3)
        assert len(sched.domains) == 1
        assert sched.horizon == 10
        assert all(sched.domain_index_at(t) == 0 for t in range(1, 11))

    def test_same_seed_identical(self):
        a = make_schedule(20, 5, Transition(), seed=11)
        b = make_schedule(20, 5, Transition(), seed=11)
        assert a == b

    def test_seed_sweep_pairwise_distinct(self):
        schedules = [make_schedule(10, 5, Transition(), seed=s) for s in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert schedules[i].domains != schedules[j].domains

    def test_severities_within_ranges(self):
        sched = make_schedule(200, 1, Transition(), seed=0)
        assert {d.kind for d in sched.domains} == set(CorruptionKind)
        for d in sched.domains:
            lo, hi = DEFAULT_SEVERITY_RANGES[d.kind]
            assert lo <= d.severity <= hi


class TestSampleBatch:
    def test_bit_for_bit_determinism(self):
        sched = make_schedule(5, 10, Transition(), seed=21)
        a = sample_batch(sched, 17, SOURCE, 64)
        b = sample_batch(sched, 17, SOURCE, 64)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_labels_untouched_by_corruption(self):
        noisy = DomainSchedule(
            domains=(Domain(CorruptionKind.GAUSSIAN_NOISE, 2.0),),
            batches_per_domain=10,
            transition=Transition(),
            seed=4,
        )
        clean = DomainSchedule(
            domains=(Domain(CorruptionKind.GAUSSIAN_NOISE, 0.0),),
            batches_per_domain=10,
            transition=Transition(),
            seed=4,
        )
        a = sample_batch(noisy, 3, SOURCE, 32)
        b = sample_batch(clean, 3, SOURCE, 32)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, b.features)

    def test_zero_severity_equals_clean_sample(self):
        sched = DomainSchedule(
            domains=(Domain(CorruptionKind.MEAN_SHIFT, 0.0),),
            batches_per_domain=5,
            transition=Transition(),
            seed=9,
        )
        batch = sample_batch(sched, 2, SOURCE, 16)
        rng = np.random.default_rng([9, 1, 2])
        features, labels = SOURCE.sample(16, rng)
        assert batch.features.tobytes() == features.tobytes()
        assert batch.labels.tobytes() == labels.tobytes()

    def test_beyond_horizon_signals_end(self):
        sched = make_schedule(2, 5, Transition(), seed=0)
        with pytest.raises(ValueError, match="batch index 11 outside 1..10"):
            sample_batch(sched, 11, SOURCE, 8)
        with pytest.raises(ValueError, match="batch index 0 outside 1..10"):
            sched.domain_index_at(0)

    def test_domain_index_recorded(self):
        sched = make_schedule(3, 4, Transition(), seed=0)
        assert [sample_batch(sched, t, SOURCE, 4).domain_index for t in (1, 4, 5, 12)] == [0, 0, 1, 2]


@contextmanager
def deadline(seconds: int):
    """Fail the block with TimeoutError, instead of hanging, after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# uint32 wraparound in a numpy scalar warns; the table's arithmetic must not
@pytest.mark.filterwarnings("error")
class TestSeedTable:
    # seeds of one, two and three 32-bit words; three words overflow the pool
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 2**32 + 5])
    def test_rows_are_seed_sequence_states(self, seed):
        sched = make_schedule(3, 1000, Transition(), seed=seed)
        table = sched.seed_table
        expected = [np.random.SeedSequence([seed, 1, t]).generate_state(4, np.uint64) for t in range(1, 3001)]
        assert table.dtype == np.uint64 and table.shape == (3000, 4)
        assert np.array_equal(table, expected)
        assert sched.seed_table is table and not table.flags.writeable

    def test_batches_equal_default_rng_batches(self):
        kinds = list(CorruptionKind)
        sched = DomainSchedule(
            domains=tuple(Domain(kind, 0.5 + i) for i, kind in enumerate(kinds + kinds[:1])),
            batches_per_domain=6,
            transition=Transition("linear", 3),
            seed=2**40 + 3,
        )
        active = {kind for t in range(1, sched.horizon + 1) for kind, _ in sched.active_corruptions(t)}
        assert active == set(kinds)
        for t in range(1, sched.horizon + 1):
            batch = sample_batch(sched, t, SOURCE, 16)
            rng = np.random.default_rng([sched.seed, 1, t])
            features, labels = SOURCE.sample(16, rng)
            for kind, severity in sched.active_corruptions(t):
                features = apply_corruption(features, kind, severity, rng, SOURCE)
            assert batch.features.tobytes() == features.tobytes()
            assert batch.labels.tobytes() == labels.tobytes()

    def test_negative_seed_rejected(self):
        with deadline(10), pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            DomainSchedule((Domain(CorruptionKind.MEAN_SHIFT, 1.0),), 5, Transition(), seed=-1)

    def test_horizon_past_one_32_bit_word_rejected(self):
        domain = Domain(CorruptionKind.MEAN_SHIFT, 1.0)
        with deadline(10):
            # the table is never built here: it would hold 32 bytes per batch
            assert DomainSchedule((domain,), 2**32 - 1, Transition(), seed=0).horizon == 2**32 - 1
            with pytest.raises(ValueError, match="horizon must be < 2\\*\\*32 batches"):
                DomainSchedule((domain, domain), 2**31, Transition(), seed=0)


class TestCorruptions:
    def test_gaussian_noise_variance(self, rng):
        clean = np.zeros((10000, 8))
        sigma = 1.7
        noisy = apply_corruption(clean, CorruptionKind.GAUSSIAN_NOISE, sigma, rng, SOURCE)
        assert np.var(noisy - clean) == pytest.approx(sigma**2, rel=0.05)

    def test_rotation_round_trips(self, rng):
        x = rng.normal(0, 1, (50, 16))
        phi = 0.73
        fwd = apply_corruption(x, CorruptionKind.FEATURE_ROTATION, phi, rng, SOURCE)
        # inverse rotation = forward with negated angle pair-wise
        out = fwd.copy()
        c, s = np.cos(phi), np.sin(phi)
        even = np.arange(8) * 2
        odd = even + 1
        a, b = fwd[:, even], fwd[:, odd]
        out[:, even] = c * a + s * b
        out[:, odd] = -s * a + c * b
        assert np.allclose(out, x, atol=1e-10)

    def test_rotation_odd_width_keeps_last_feature(self, rng):
        x = rng.normal(0, 1, (30, 7))
        phi = 0.9
        rot = apply_corruption(x, CorruptionKind.FEATURE_ROTATION, phi, rng, SourceDistribution(4, 7))
        c, s = math.cos(phi), math.sin(phi)
        for i in (0, 2, 4):
            assert np.array_equal(rot[:, i], c * x[:, i] - s * x[:, i + 1])
            assert np.array_equal(rot[:, i + 1], s * x[:, i] + c * x[:, i + 1])
        assert np.array_equal(rot[:, 6], x[:, 6])

    def test_rotation_preserves_norm(self, rng):
        x = rng.normal(0, 1, (20, 16))
        rot = apply_corruption(x, CorruptionKind.FEATURE_ROTATION, 1.1, rng, SOURCE)
        assert np.allclose(np.linalg.norm(rot, axis=1), np.linalg.norm(x, axis=1), atol=1e-10)

    def test_scale_and_shift_formulas(self, rng):
        x = rng.normal(0, 1, (5, 16))
        scaled = apply_corruption(x, CorruptionKind.FEATURE_SCALE, 0.5, rng, SOURCE)
        assert np.allclose(scaled, 1.5 * x, atol=1e-15)
        shifted = apply_corruption(x, CorruptionKind.MEAN_SHIFT, 2.0, rng, SOURCE)
        assert np.allclose(shifted, x + 2.0 * SOURCE.shift_direction, atol=1e-15)

    @pytest.mark.parametrize("kind", list(CorruptionKind))
    def test_callers_features_left_unchanged(self, kind, rng):
        x = rng.normal(0, 1, (64, 16))
        kept = x.copy()
        out = apply_corruption(x, kind, 0.9, rng, SOURCE)
        assert x.tobytes() == kept.tobytes()
        assert not np.shares_memory(out, x)

    @pytest.mark.parametrize("k", [4, 9])
    def test_gaussian_noise_has_the_bits_of_the_plain_expression(self, k):
        source = SourceDistribution(k, 16)
        for seed in range(20):
            x, _ = source.sample(64, np.random.default_rng([seed, 0]))
            noisy = apply_corruption(x, CorruptionKind.GAUSSIAN_NOISE, 1.3, np.random.default_rng(seed), source)
            expected = x + 1.3 * np.random.default_rng(seed).standard_normal(x.shape)
            assert noisy.tobytes() == expected.tobytes()

    def test_shift_direction_crosses_boundary(self):
        v = SOURCE.shift_direction
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # points from class 0's mean toward class 1's
        assert v[1] > 0 > v[0]

    @pytest.mark.parametrize("separation", [1e154, 1e300, -1e300])
    def test_shift_direction_is_a_unit_vector_past_the_norms_overflow(self, separation):
        # above about 9.5e153 the norm of the means' difference overflows to inf
        v = SourceDistribution(class_separation=separation).shift_direction
        small = SourceDistribution(class_separation=math.copysign(2.5, separation)).shift_direction
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(np.sign(v), np.sign(small))


class TestTransitions:
    def make(self, kind_a, kind_b, transition):
        return DomainSchedule(
            domains=(Domain(kind_a, 2.0), Domain(kind_b, 1.0)),
            batches_per_domain=10,
            transition=transition,
            seed=0,
        )

    def test_abrupt_changes_in_one_step(self):
        sched = self.make(CorruptionKind.GAUSSIAN_NOISE, CorruptionKind.MEAN_SHIFT, Transition())
        assert sched.active_corruptions(10) == [(CorruptionKind.GAUSSIAN_NOISE, 2.0)]
        assert sched.active_corruptions(11) == [(CorruptionKind.MEAN_SHIFT, 1.0)]

    def test_linear_ramp_cross_fades_different_kinds(self):
        sched = self.make(
            CorruptionKind.GAUSSIAN_NOISE,
            CorruptionKind.MEAN_SHIFT,
            Transition(kind="linear", ramp_batches=4),
        )
        # first ramp batch: mostly old corruption
        active = sched.active_corruptions(11)
        assert active == [
            (CorruptionKind.GAUSSIAN_NOISE, 2.0 * 0.75),
            (CorruptionKind.MEAN_SHIFT, 1.0 * 0.25),
        ]
        # ramp end: exactly the new domain
        assert sched.active_corruptions(14) == [
            (CorruptionKind.GAUSSIAN_NOISE, 0.0),
            (CorruptionKind.MEAN_SHIFT, 1.0),
        ]
        assert sched.active_corruptions(15) == [(CorruptionKind.MEAN_SHIFT, 1.0)]

    def test_linear_ramp_same_kind_interpolates_severity(self):
        sched = self.make(
            CorruptionKind.FEATURE_ROTATION,
            CorruptionKind.FEATURE_ROTATION,
            Transition(kind="linear", ramp_batches=4),
        )
        kinds_and_sev = sched.active_corruptions(12)  # u = 0.5
        assert kinds_and_sev == [(CorruptionKind.FEATURE_ROTATION, 1.5)]

    def test_ramp_must_fit_in_domain(self):
        with pytest.raises(ValueError, match="ramp_batches"):
            self.make(
                CorruptionKind.GAUSSIAN_NOISE,
                CorruptionKind.MEAN_SHIFT,
                Transition(kind="linear", ramp_batches=10),
            )

    def test_transition_validation(self):
        with pytest.raises(ValueError):
            Transition(kind="smooth")
        with pytest.raises(ValueError):
            Transition(kind="linear", ramp_batches=0)


class TestSourceDistribution:
    def test_sampling_shapes_and_labels(self, rng):
        x, y = SOURCE.sample(100, rng)
        assert x.shape == (100, 16)
        assert set(np.unique(y)) <= set(range(4))

    @pytest.mark.parametrize("k", [4, 9])
    def test_sample_has_the_bits_of_the_plain_expression(self, k):
        source = SourceDistribution(k, 16)
        for seed in range(20):
            features, labels = source.sample(64, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            expected_labels = rng.integers(0, k, size=64)
            expected = source.means[expected_labels] + rng.standard_normal((64, 16))
            assert labels.tobytes() == expected_labels.tobytes()
            assert features.tobytes() == expected.tobytes()

    def test_class_means_separated(self, rng):
        x, y = SOURCE.sample(50000, rng)
        for k in range(4):
            mu = x[y == k].mean(axis=0)
            assert np.allclose(mu, SOURCE.means[k], atol=0.05)

    def test_source_constants_built_once_and_read_only(self):
        source = SourceDistribution()
        for name in ("means", "shift_direction"):
            value = getattr(source, name)
            assert getattr(source, name) is value
            assert not value.flags.writeable
            with pytest.raises(ValueError):
                value[0] = 1.0

    def test_domain_severity_validation(self):
        with pytest.raises(ValueError):
            Domain(CorruptionKind.MEAN_SHIFT, -1.0)
        with pytest.raises(ValueError):
            Domain(CorruptionKind.MEAN_SHIFT, float("nan"))
