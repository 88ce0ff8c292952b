"""Generator, split, normalization, crop, and storage tests."""

import numpy as np
import pytest

from msml import dataset as ds
from msml.errors import ConfigError, DataError, DimensionError, FormatError


def small_spec(**kw):
    defaults = dict(num_samples=200, num_groups=20, seed=11)
    defaults.update(kw)
    return ds.GeneratorSpec(**defaults)


class TestGenerate:
    def test_deterministic(self):
        a = ds.generate(small_spec())
        b = ds.generate(small_spec())
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.group_ids, b.group_ids)

    def test_different_seed_differs(self):
        a = ds.generate(small_spec())
        b = ds.generate(small_spec(seed=12))
        assert not np.array_equal(a.images, b.images)

    def test_noiseless_single_class_is_background_plus_template(self):
        spec = small_spec(noise_sigma=0.0, normal_fraction=0.0, num_samples=50)
        data = ds.generate(spec)
        single = np.flatnonzero(data.labels.sum(axis=1) == 1)
        assert single.size > 0
        for i in single[:10]:
            c = int(np.flatnonzero(data.labels[i])[0])
            expected = np.clip(
                ds.BACKGROUND_LEVEL + ds.class_template(c, 1, 32, 32), 0.0, 1.0
            ).astype(np.float32)
            np.testing.assert_array_equal(data.images[i], expected)

    def test_normal_fraction_one_gives_all_zero_labels(self):
        spec = small_spec(normal_fraction=1.0, num_samples=100)
        data = ds.generate(spec)
        assert data.labels.sum() == 0

    def test_images_within_unit_interval(self):
        data = ds.generate(small_spec(noise_sigma=0.4))
        assert data.images.min() >= 0.0
        assert data.images.max() <= 1.0

    def test_prevalence_marginals_within_three_se(self):
        spec = ds.GeneratorSpec(
            num_samples=10_000, num_groups=100, normal_fraction=0.0,
            cooccurrence_pairs=(), seed=5,
        )
        data = ds.generate(spec)
        rates = data.labels.mean(axis=0)
        for c, p in enumerate(spec.class_prevalence):
            se = np.sqrt(p * (1 - p) / spec.num_samples)
            assert abs(rates[c] - p) <= 3 * se, f"class {c}: {rates[c]} vs {p}"

    def test_cooccurrence_boost_measurable(self):
        spec = ds.GeneratorSpec(
            num_samples=10_000, num_groups=100, normal_fraction=0.0,
            cooccurrence_pairs=((0, 4, 0.3),), seed=6,
        )
        data = ds.generate(spec)
        a = data.labels[:, 0] == 1
        p_b_given_a = data.labels[a, 4].mean()
        p_b_given_not_a = data.labels[~a, 4].mean()
        assert p_b_given_a - p_b_given_not_a > 0.2

    def test_all_normal_fraction_statistics(self):
        spec = ds.GeneratorSpec(num_samples=10_000, normal_fraction=0.5,
                                cooccurrence_pairs=(), seed=7)
        data = ds.generate(spec)
        # all-zero rows = designated normals plus non-normals that drew nothing
        p_zero = 0.5 + 0.5 * np.prod([1 - p for p in spec.class_prevalence])
        se = np.sqrt(p_zero * (1 - p_zero) / spec.num_samples)
        observed = (data.labels.sum(axis=1) == 0).mean()
        assert abs(observed - p_zero) <= 3 * se

    def test_linear_probe_reaches_perfect_auc_on_noiseless_data(self):
        from msml.metrics import roc_auc

        spec = ds.GeneratorSpec(
            num_samples=400, num_groups=40, noise_sigma=0.0, normal_fraction=0.3,
            class_prevalence=(0.3, 0.25, 0.2, 0.18, 0.15, 0.12, 0.1, 0.1), seed=8,
        )
        data = ds.generate(spec)
        x = data.images.reshape(len(data), -1).astype(np.float64)
        x = np.hstack([x, np.ones((len(data), 1))])
        y = data.labels.astype(np.float64)
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        scores = x @ w
        for c in range(spec.num_classes):
            assert roc_auc(scores[:, c], data.labels[:, c]) == 1.0

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            ds.GeneratorSpec(class_prevalence=(1.5,) * 8).validate()
        with pytest.raises(ConfigError):
            ds.GeneratorSpec(normal_fraction=1.5).validate()
        with pytest.raises(ConfigError):
            ds.GeneratorSpec(cooccurrence_pairs=((0, 1, 0.9),)).validate()


class TestTemplates:
    def test_distinct_per_class(self):
        ts = [ds.class_template(c, 1, 32, 32) for c in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert not np.array_equal(ts[i], ts[j])

    def test_orientations_alternate(self):
        horiz = ds.class_template(0, 1, 32, 32)
        vert = ds.class_template(1, 1, 32, 32)
        assert (horiz.sum(axis=2) > 0).sum() < 32  # a few full rows
        assert (vert.sum(axis=1) > 0).sum() < 32  # a few full columns


class TestSplit:
    def test_grouped_folds_share_no_groups(self):
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(seed=3))
        groups = {name: set(data.group_ids[idx].tolist()) for name, idx in folds.items()}
        assert groups["train"] & groups["val"] == set()
        assert groups["train"] & groups["test"] == set()
        assert groups["val"] & groups["test"] == set()

    def test_folds_partition_all_samples(self):
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(seed=3))
        merged = np.sort(np.concatenate(list(folds.values())))
        np.testing.assert_array_equal(merged, np.arange(len(data)))

    def test_group_counts_within_one_of_targets(self):
        data = ds.generate(ds.GeneratorSpec(num_samples=1000, num_groups=100, seed=4))
        folds = ds.split(data, ds.SplitSpec(seed=4))
        counts = {name: len(set(data.group_ids[idx].tolist())) for name, idx in folds.items()}
        assert abs(counts["train"] - 70) <= 1
        assert abs(counts["val"] - 10) <= 1
        assert abs(counts["test"] - 20) <= 1

    def test_same_seed_same_folds(self):
        data = ds.generate(small_spec())
        a = ds.split(data, ds.SplitSpec(seed=9))
        b = ds.split(data, ds.SplitSpec(seed=9))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_too_few_groups(self):
        data = ds.generate(small_spec(num_groups=5))
        with pytest.raises(DataError):
            ds.split(data, ds.SplitSpec())

    def test_ungrouped_split(self):
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(grouped=False, seed=1))
        sizes = {name: idx.size for name, idx in folds.items()}
        assert sizes == {"train": 140, "val": 20, "test": 40}


class TestNormalize:
    def test_train_fold_standardized(self):
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(seed=2))
        images = {k: data.images[v] for k, v in folds.items()}
        normed, (mean, std) = ds.normalize(images)
        post_mean, post_std = ds.channel_stats(normed["train"])
        assert np.abs(post_mean).max() < 1e-10
        np.testing.assert_allclose(post_std, 1.0, atol=1e-6)

    def test_test_fold_uses_train_stats(self):
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(seed=2))
        images = {k: data.images[v] for k, v in folds.items()}
        normed, (mean, std) = ds.normalize(images)
        expected = (images["test"].astype(np.float64) - mean[None, :, None, None]) / std[None, :, None, None]
        np.testing.assert_allclose(normed["test"], expected, atol=1e-12)
        post_mean, _ = ds.channel_stats(normed["test"])
        assert np.abs(post_mean).max() > 1e-10  # its own mean is not zero

    def test_constant_channel_maps_to_zeros(self):
        images = {"train": np.full((5, 1, 4, 4), 0.3, dtype=np.float32)}
        normed, _ = ds.normalize(images)
        np.testing.assert_array_equal(normed["train"], np.zeros((5, 1, 4, 4)))
        assert np.isfinite(normed["train"]).all()

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            ds.normalize({"train": np.zeros((0, 1, 4, 4))})


class TestCrop:
    def test_full_size_identity(self):
        rng = np.random.default_rng(0)
        img = rng.random((1, 8, 8))
        np.testing.assert_array_equal(ds.crop_batch(img[None], 8, training=True, rng=np.random.default_rng(1))[0], img)

    def test_center_crop_offset(self):
        img = np.arange(32 * 32, dtype=np.float64).reshape(1, 32, 32)
        out = ds.crop_batch(img[None], 28, training=False)[0]
        np.testing.assert_array_equal(out, img[:, 2:30, 2:30])

    def test_training_crops_reproducible(self):
        rng = np.random.default_rng(1)
        img = rng.random((1, 16, 16))
        a = ds.crop_batch(img[None], 12, training=True, rng=np.random.default_rng(44))[0]
        b = ds.crop_batch(img[None], 12, training=True, rng=np.random.default_rng(44))[0]
        np.testing.assert_array_equal(a, b)

    def test_crop_too_large(self):
        with pytest.raises(DimensionError):
            ds.crop_batch(np.zeros((1, 1, 8, 8)), 9, training=False)

    def test_batch_crop_matches_shapes(self):
        rng = np.random.default_rng(2)
        imgs = rng.random((6, 1, 16, 16))
        out = ds.crop_batch(imgs, 12, training=True, rng=np.random.default_rng(3))
        assert out.shape == (6, 1, 12, 12)
        center = ds.crop_batch(imgs, 12, training=False)
        np.testing.assert_array_equal(center, imgs[:, :, 2:14, 2:14])


class TestStorage:
    def test_round_trip_bit_exact(self, tmp_path):
        data = ds.generate(small_spec())
        ds.save(data, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["images.bin", "labels.csv"]
        back = ds.load(tmp_path)
        np.testing.assert_array_equal(back.images, data.images)
        np.testing.assert_array_equal(back.labels, data.labels)
        np.testing.assert_array_equal(back.group_ids, data.group_ids)
        assert back.class_names == data.class_names

    def test_truncated_images_raise_format_error(self, tmp_path):
        data = ds.generate(small_spec(num_samples=20))
        ds.save(data, tmp_path)
        blob = (tmp_path / "images.bin").read_bytes()
        (tmp_path / "images.bin").write_bytes(blob[:-10])
        with pytest.raises(FormatError) as err:
            ds.load(tmp_path)
        assert err.value.offset is not None

    def test_bad_magic(self, tmp_path):
        data = ds.generate(small_spec(num_samples=5))
        ds.save(data, tmp_path)
        blob = bytearray((tmp_path / "images.bin").read_bytes())
        blob[:4] = b"XXXX"
        (tmp_path / "images.bin").write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            ds.load(tmp_path)
        assert err.value.offset == 0

    def test_label_row_count_must_match(self, tmp_path):
        data = ds.generate(small_spec(num_samples=10))
        ds.save(data, tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        (tmp_path / "labels.csv").write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FormatError, match="rows"):
            ds.load(tmp_path)

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(ds.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            ds.save(ds.generate(small_spec(num_samples=5)), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_splits_round_trip(self, tmp_path):
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(seed=5))
        ds.save_splits(folds, tmp_path / "splits.json")
        back = ds.load_splits(tmp_path / "splits.json", len(data))
        for name in folds:
            np.testing.assert_array_equal(back[name], folds[name])

    @pytest.mark.parametrize("cell", ["2", "-1"])
    def test_label_outside_zero_one_names_the_row(self, tmp_path, cell):
        ds.save(ds.generate(small_spec(num_samples=10)), tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        fields = lines[4].split(",")
        fields[-1] = cell
        lines[4] = ",".join(fields)
        (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 5 .*0 or 1"):
            ds.load(tmp_path)

    def test_ungrouped_splits_load(self, tmp_path):
        # grouped=False may put a group in several folds; loading accepts that
        data = ds.generate(small_spec())
        folds = ds.split(data, ds.SplitSpec(grouped=False, seed=2))
        ds.save_splits(folds, tmp_path / "splits.json")
        back = ds.load_splits(tmp_path / "splits.json", len(data))
        assert sum(map(len, back.values())) == len(data)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda f: f["test"].append(10**6), "fold 'test': index 1000000 outside"),
            (lambda f: f["val"].append(-1), "fold 'val': index -1 outside"),
            (lambda f: f["test"].append(f["test"][0]), "index .* in fold 'test' and again in 'test'"),
            (lambda f: f["test"].append(f["train"][0]), "index .* in fold 'test' and again in 'train'"),
        ],
        ids=["out-of-range", "negative", "repeated", "in-two-folds"],
    )
    def test_bad_split_index_names_the_fold(self, tmp_path, corrupt, message):
        data = ds.generate(small_spec())
        folds = {name: idx.tolist() for name, idx in ds.split(data, ds.SplitSpec(seed=5)).items()}
        corrupt(folds)
        ds.save_splits(folds, tmp_path / "splits.json")
        with pytest.raises(FormatError, match=message):
            ds.load_splits(tmp_path / "splits.json", len(data))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"train": [1, 2', "not valid JSON"),
            ("[0, 1, 2]", "holds a list, expected an object of folds"),
            ('{"train": [0, 1.5]}', "fold 'train': expected a list of integer indices"),
            ('{"train": [0, true]}', "fold 'train': expected a list of integer indices"),
            ('{"train": 3}', "fold 'train': expected a list of integer indices"),
        ],
        ids=["truncated", "not-an-object", "float-index", "bool-index", "fold-not-a-list"],
    )
    def test_malformed_splits_file_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "splits.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=f"splits.json.*{message}"):
            ds.load_splits(path, 10)


class TestSpecFiles:
    def test_defaults_when_empty(self):
        spec = ds.parse_fields(ds.GeneratorSpec, "")
        assert spec == ds.GeneratorSpec()

    def test_round_trip(self):
        spec = ds.GeneratorSpec(num_samples=123, seed=99, noise_sigma=0.05,
                                cooccurrence_pairs=((1, 2, 0.1),))
        again = ds.parse_fields(ds.GeneratorSpec, ds.format_fields(spec))
        assert again == spec

    def test_line_numbered_errors(self):
        with pytest.raises(ConfigError, match="line 3"):
            ds.parse_fields(ds.GeneratorSpec, "num_samples = 50\nseed = 1\nwhat_is_this = 3\n")
        with pytest.raises(ConfigError, match="line 2"):
            ds.parse_fields(ds.GeneratorSpec, "seed = 1\nnum_samples = abc\n")

    def test_invalid_prevalence_rejected(self):
        text = "class_prevalence = 1.5, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2\n"
        with pytest.raises(ConfigError):
            ds.parse_fields(ds.GeneratorSpec, text)

    def test_comments_and_blanks_ignored(self):
        spec = ds.parse_fields(ds.GeneratorSpec, "# a comment\n\nnum_samples = 77  # trailing\n")
        assert spec.num_samples == 77
