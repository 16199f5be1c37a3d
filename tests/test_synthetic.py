"""Unit tests for synthetic data generation (repro.datasets.synthetic)."""

import numpy as np
import pytest

from repro.datasets import TaskKind, generate, zipf_probabilities
from tests.conftest import small_spec_factory


class TestZipf:
    def test_normalized(self):
        p = zipf_probabilities(100, 1.3)
        assert p.sum() == pytest.approx(1.0)

    def test_uniform_at_zero_skew(self):
        p = zipf_probabilities(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_monotone_decreasing(self):
        p = zipf_probabilities(50, 1.1)
        assert np.all(np.diff(p) < 0)

    def test_higher_skew_more_head_mass(self):
        head_low = zipf_probabilities(100, 0.5)[0]
        head_high = zipf_probabilities(100, 2.0)[0]
        assert head_high > head_low

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0, 1.0)


class TestGenerate:
    def test_deterministic_in_seed(self):
        spec = small_spec_factory(seed=11)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = generate(small_spec_factory(seed=1))
        b = generate(small_spec_factory(seed=2))
        assert not np.array_equal(a.codes, b.codes)

    def test_shapes(self):
        spec = small_spec_factory(n_records=321)
        ds = generate(spec)
        assert ds.codes.shape == (321, spec.n_fields)
        assert ds.y.shape == (321,)

    def test_codes_valid(self):
        generate(small_spec_factory()).validate_codes()

    def test_binary_labels_are_binary_and_balanced(self):
        ds = generate(small_spec_factory(n_records=2000, task=TaskKind.BINARY))
        assert set(np.unique(ds.y)) <= {0.0, 1.0}
        assert 0.4 < ds.y.mean() < 0.6  # median thresholding balances classes

    def test_regression_labels_are_continuous(self):
        ds = generate(small_spec_factory(task=TaskKind.REGRESSION))
        assert len(np.unique(ds.y)) > 50

    def test_ranking_labels_three_grades(self):
        ds = generate(small_spec_factory(task=TaskKind.RANKING))
        assert set(np.unique(ds.y)) <= {0.0, 1.0, 2.0}

    def test_missing_rate_respected(self):
        spec = small_spec_factory(n_records=5000, missing_rate=0.2)
        ds = generate(spec)
        f0 = spec.fields[0]
        frac = float(np.mean(ds.codes[:, 0] == f0.missing_bin))
        assert 0.15 < frac < 0.25

    def test_no_missing_when_rate_zero(self):
        spec = small_spec_factory(missing_rate=0.0)
        ds = generate(spec)
        for j, f in enumerate(spec.fields):
            if f.is_categorical:
                continue  # categorical sampling never emits the missing code
            assert not np.any(ds.codes[:, j] == f.missing_bin)

    def test_skewed_categorical_head_heavy(self):
        spec = small_spec_factory(n_records=5000)
        ds = generate(spec)
        j = spec.n_numerical_fields  # first categorical field (skew=1.0)
        counts = np.bincount(ds.codes[:, j].astype(int))
        assert counts[0] == counts.max()  # head category most popular

    def test_target_depends_on_weighted_field(self):
        # Splitting on the strongest field must separate labels far better
        # than splitting on a noise field.
        spec = small_spec_factory(n_records=4000, missing_rate=0.0)
        ds = generate(spec)
        strong = ds.codes[:, 0].astype(float)  # weight 1.0
        noise = ds.codes[:, spec.n_numerical_fields - 1].astype(float)  # weight 0
        corr_strong = abs(np.corrcoef(strong, ds.y)[0, 1])
        corr_noise = abs(np.corrcoef(noise, ds.y)[0, 1])
        assert corr_strong > 5 * max(corr_noise, 1e-3)
