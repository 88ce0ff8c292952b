"""Generator, split, normalization, crop, and storage tests."""

import hashlib
import os
import struct
import threading

import numpy as np
import pytest

from helpers import peak_memory
from msml import dataset as ds
from msml.errors import ConfigError, DataError, DimensionError, FormatError
from msml.train import FoldData


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

    def test_neighbouring_seeds_share_no_sample(self):
        a, b = (ds.generate(small_spec(seed=s)).images.reshape(200, -1) for s in (6, 7))
        assert not {row.tobytes() for row in a} & {row.tobytes() for row in b}

    def test_first_samples_are_the_smaller_dataset(self):
        kw = dict(num_groups=37, channels=2, image_size=(16, 12), noise_sigma=0.37, seed=9)
        big = ds.generate(ds.GeneratorSpec(num_samples=777, **kw))
        small = ds.generate(ds.GeneratorSpec(num_samples=300, **kw))
        np.testing.assert_array_equal(big.images[:300], small.images)
        np.testing.assert_array_equal(big.labels[:300], small.labels)

    def test_output_does_not_depend_on_chunk_size(self, monkeypatch):
        spec = small_spec(num_samples=600, num_groups=30)
        a = ds.generate(spec)
        monkeypatch.setattr(ds, "GENERATE_CHUNK", 7)
        b = ds.generate(spec)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_streams_alias_no_stream_seeded_from_the_same_seed(self, monkeypatch):
        # SeedSequence pads short entropy with zeros: default_rng([s, 0]) is default_rng(s), which
        # split and the model's init also read, so keys like [s, 0] and [s, 1] would reuse their bits
        seeds, default_rng = [], np.random.default_rng

        def recording(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        def first_raw(seed):
            return tuple(default_rng(seed).bit_generator.random_raw(4))

        monkeypatch.setattr(np.random, "default_rng", recording)
        ds.generate(small_spec(seed=5))
        monkeypatch.undo()
        assert len(seeds) == 2
        built = {first_raw(seed) for seed in seeds}
        others = {first_raw(seed) for seed in [5, [5, 17], *([5, k] for k in range(5))]}
        assert len(built) == 2 and not built & others

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
        with pytest.raises(ConfigError, match=r"pair \(0, 1\) boost nan outside \[0, "):
            ds.GeneratorSpec(cooccurrence_pairs=((0, 1, float("nan")),)).validate()

    @pytest.mark.parametrize("a,b", [(2, 2), (0, 8), (-1, 3)])
    def test_cooccurrence_pair_needs_two_distinct_classes_in_range(self, a, b):
        # a pair of one class can never act: its boost fires only where the class is already positive
        with pytest.raises(ConfigError, match=rf"pair \({a}, {b}\) needs two distinct classes in \[0, 8\)"):
            ds.GeneratorSpec(cooccurrence_pairs=((a, b, 0.1),)).validate()

    # sha256 of images.bin, labels.csv and splits.json as save and save_splits write them
    @pytest.mark.parametrize("kw,digests", [
        (dict(num_samples=600, num_groups=30, seed=5),  # the default boosts, over three chunks
         ("691ddc6edc8d549d48557f0c7df3131de9f8c11d4b43946031d8a802b56a4015",
          "bdcb1fb410a1908c68aeaf906adc7dec1a8ee8d0c367d131402a4cfef71c5e80",
          "121bebde4f08413add9835f92ef5ab51c6cdefe7c09ddf64b4ffcbc7c222cd92")),
        (dict(num_samples=300, num_groups=20, noise_sigma=0.0, seed=11),
         ("82852fe187e18e9bc6f765f37be1c487757212c7f269b2a0a4430bb9abd29a81",
          "b6e01ada1679be22467f83ec6aad1fd0e85499d10aa4e535e596eaa351425ee8",
          "eeaf04c8b20b8cb1c720891e2a897d03dedf44ca3f120ad83d49b3476b279e7f")),
        (dict(num_samples=300, num_groups=20, normal_fraction=1.0, seed=11),
         ("d7d07a65ed29bafaba228c9f24105e2a22c6a6640e4c1c7bb808406103d93ed3",
          "1f5e166fe96990302767f580b5ff92b0320150a4ae1b22145a9abad963968ffc",
          "eeaf04c8b20b8cb1c720891e2a897d03dedf44ca3f120ad83d49b3476b279e7f")),
        (dict(num_samples=777, num_groups=37, channels=2, image_size=(16, 12), noise_sigma=0.37, seed=9),
         ("f315bb4e44e8669a66a11191a6abb1719b64361d467cf51f29bceabdf6d62cf6",
          "fd1f49c6c83b34365c339614002e95c429ba1253b53aa093d8ca4502e43c3aeb",
          "3a9dc09bb77bc5f51e5827914e0ed1b0b7648d1d42750c903bfcc65d82ba5b77")),
    ], ids=["boosts", "noiseless", "all_normal", "777_samples"])
    def test_saved_bytes_are_pinned(self, tmp_path, kw, digests):
        spec = ds.GeneratorSpec(**kw)
        data = ds.generate(spec)
        ds.save(data, tmp_path)
        ds.save_splits(ds.split(data.group_ids, spec.seed), tmp_path / "splits.json")
        got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in ("images.bin", "labels.csv", "splits.json"))
        assert got == digests

    def test_float64_work_is_one_chunk(self):
        # a float64 buffer of the whole dataset would take 16 MB more
        spec = small_spec(num_samples=2000, num_groups=100)
        with peak_memory() as peak:
            data = ds.generate(spec)
        assert peak[0] < data.images.nbytes + 4 * 2**20


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
        folds = ds.split(data.group_ids, 3)
        groups = {name: set(data.group_ids[idx].tolist()) for name, idx in folds.items()}
        assert groups["train"] & groups["val"] == set()
        assert groups["train"] & groups["test"] == set()
        assert groups["val"] & groups["test"] == set()

    def test_folds_partition_all_samples(self):
        data = ds.generate(small_spec())
        folds = ds.split(data.group_ids, 3)
        merged = np.sort(np.concatenate(list(folds.values())))
        np.testing.assert_array_equal(merged, np.arange(len(data)))

    def test_group_counts_within_one_of_targets(self):
        data = ds.generate(ds.GeneratorSpec(num_samples=1000, num_groups=100, seed=4))
        folds = ds.split(data.group_ids, 4)
        counts = {name: len(set(data.group_ids[idx].tolist())) for name, idx in folds.items()}
        assert abs(counts["train"] - 70) <= 1
        assert abs(counts["val"] - 10) <= 1
        assert abs(counts["test"] - 20) <= 1

    def test_same_seed_same_folds(self):
        data = ds.generate(small_spec())
        a = ds.split(data.group_ids, 9)
        b = ds.split(data.group_ids, 9)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_every_group_count_from_ten_gives_three_nonempty_disjoint_folds(self):
        rng = np.random.default_rng(12)
        for g in range(10, 301):
            group_ids = rng.permutation(np.repeat(np.arange(g), rng.integers(1, 4, size=g)))
            folds = ds.split(group_ids, g)
            assert all(idx.size > 0 for idx in folds.values()), g
            merged = np.sort(np.concatenate(list(folds.values())))
            np.testing.assert_array_equal(merged, np.arange(group_ids.size))

    def test_too_few_groups(self):
        data = ds.generate(small_spec(num_groups=5))
        with pytest.raises(DataError):
            ds.split(data.group_ids, 0)

    def test_groups_are_permuted_in_the_sorted_order_of_numpy_unique(self):
        rng = np.random.default_rng(3)
        group_ids = rng.choice(np.array([-40, -7, 0, 3, 5, 11, 12, 90, 91, 1000, 2**40]), size=300)
        order = np.random.default_rng(8).permutation(np.unique(group_ids))
        folds = ds.split(group_ids, 8)
        for name, fold_groups in (("train", order[:8]), ("val", order[8:9]), ("test", order[9:])):
            np.testing.assert_array_equal(folds[name], np.flatnonzero(np.isin(group_ids, fold_groups)))

    def test_spec_group_ids_are_the_generated_ones(self):
        spec = small_spec(num_samples=57, num_groups=20)
        np.testing.assert_array_equal(spec.group_ids, ds.generate(spec).group_ids)
        np.testing.assert_array_equal(spec.group_ids, np.arange(57) % 20)


class TestNormalize:
    @staticmethod
    def standardized_folds(images):
        mean, scale = ds.channel_stats(images["train"])
        return {k: FoldData(v, np.zeros((len(v), 1)), mean, scale).standardized(v) for k, v in images.items()}

    def test_train_fold_standardized(self):
        data = ds.generate(small_spec())
        folds = ds.split(data.group_ids, 2)
        images = {k: data.images[v] for k, v in folds.items()}
        normed = self.standardized_folds(images)
        post_mean, post_std = ds.channel_stats(normed["train"])
        assert np.abs(post_mean).max() < 1e-10
        np.testing.assert_allclose(post_std, 1.0, atol=1e-6)

    def test_test_fold_uses_train_stats(self):
        data = ds.generate(small_spec())
        folds = ds.split(data.group_ids, 2)
        images = {k: data.images[v] for k, v in folds.items()}
        normed = self.standardized_folds(images)
        mean, std = ds.channel_stats(images["train"])
        expected = (images["test"].astype(np.float64) - mean[None, :, None, None]) / std[None, :, None, None]
        np.testing.assert_allclose(normed["test"], expected, atol=1e-12)
        post_mean, _ = ds.channel_stats(normed["test"])
        assert np.abs(post_mean).max() > 1e-10  # its own mean is not zero

    def test_constant_channel_maps_to_zeros(self):
        images = {"train": np.full((5, 1, 4, 4), 0.3, dtype=np.float32)}
        normed = self.standardized_folds(images)
        np.testing.assert_array_equal(normed["train"], np.zeros((5, 1, 4, 4)))
        assert np.isfinite(normed["train"]).all()

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            ds.channel_stats(np.zeros((0, 1, 4, 4)))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_channel_stats_are_numpys_bits_and_leave_the_input_alone(self, dtype, channels):
        images = np.random.default_rng(channels).normal(0.4, 0.2, size=(37, channels, 13, 11)).astype(dtype)
        before = images.copy()
        mean, std = ds.channel_stats(images)
        x = images.astype(np.float64)
        assert np.array_equal(mean, x.mean(axis=(0, 2, 3)))
        assert np.array_equal(std, x.std(axis=(0, 2, 3)))
        assert np.array_equal(images, before)


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
        for damaged in (blob[:-10], blob + bytes(10)):  # the offset is min(file size, expected end)
            (tmp_path / "images.bin").write_bytes(damaged)
            with pytest.raises(FormatError, match="image payload has") as err:
                ds.load(tmp_path)
            assert err.value.offset == min(len(damaged), len(blob))

    def test_file_ending_inside_the_header_names_its_length(self, tmp_path):
        ds.save(ds.generate(small_spec(num_samples=5)), tmp_path)
        blob = (tmp_path / "images.bin").read_bytes()
        (tmp_path / "images.bin").write_bytes(blob[:20])
        with pytest.raises(FormatError, match="truncated header") as err:
            ds.load(tmp_path)
        assert err.value.offset == 20

    def test_header_claiming_more_pixels_than_the_file_allocates_nothing(self, tmp_path):
        data = ds.generate(small_spec(num_samples=400))  # 1.6 MB of pixels
        ds.save(data, tmp_path)
        blob = bytearray((tmp_path / "images.bin").read_bytes())
        blob[8:12] = struct.pack("<I", 1_000_000)  # N
        (tmp_path / "images.bin").write_bytes(bytes(blob))
        with peak_memory() as peak, pytest.raises(FormatError, match="image payload has") as err:
            ds.load(tmp_path)
        assert err.value.offset == len(blob)
        assert peak[0] < 2**20

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

    def test_two_writers_each_rename_a_whole_file(self, tmp_path, monkeypatch):
        # Writer A is held between its write and its rename while writer B runs whole.
        target, held, errors = tmp_path / "out", threading.Barrier(2, timeout=30), []
        real_replace = os.replace

        def replace(src, dst):
            if threading.current_thread() is writer_a:
                held.wait()  # A's temp file is written
                held.wait()  # B has finished
            real_replace(src, dst)

        def write_a():
            try:
                ds.write_atomic(target, b"a" * 1000)
            except OSError as exc:
                errors.append(exc)

        monkeypatch.setattr(ds.os, "replace", replace)
        writer_a = threading.Thread(target=write_a)
        writer_a.start()
        held.wait()
        ds.write_atomic(target, b"b" * 10)
        assert target.read_bytes() == b"b" * 10
        held.wait()
        writer_a.join(timeout=30)
        assert not writer_a.is_alive() and errors == []
        assert target.read_bytes() == b"a" * 1000
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_written_file_has_the_mode_of_a_plain_open(self, tmp_path):
        (tmp_path / "plain").write_bytes(b"")
        ds.write_atomic(tmp_path / "atomic", b"x")
        assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode

    def test_save_makes_no_copy_of_the_pixels(self, tmp_path):
        data = ds.generate(small_spec(num_samples=2000, num_groups=100))
        with peak_memory() as peak:
            ds.save(data, tmp_path)
        assert peak[0] < data.images.nbytes / 2
        np.testing.assert_array_equal(ds.load(tmp_path).images, data.images)

    def test_write_atomic_takes_any_bytes_like_or_text(self, tmp_path):
        payload = bytes(range(256)) * 3
        for data in (bytearray(payload), memoryview(payload)):
            ds.write_atomic(tmp_path / "blob", data)
            assert (tmp_path / "blob").read_bytes() == payload
        ds.write_atomic(tmp_path / "blob", b"head", np.arange(3, dtype="<f4"))
        assert (tmp_path / "blob").read_bytes() == b"head" + np.arange(3, dtype="<f4").tobytes()
        ds.write_atomic(tmp_path / "text", "caf\u00e9\n")
        assert (tmp_path / "text").read_text() == "caf\u00e9\n"

    def test_splits_round_trip(self, tmp_path):
        data = ds.generate(small_spec())
        folds = ds.split(data.group_ids, 5)
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

    @pytest.mark.parametrize("sample_id", ["7", "banana", ""])
    def test_sample_id_other_than_the_row_index_names_the_row(self, tmp_path, sample_id):
        ds.save(ds.generate(small_spec(num_samples=10)), tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        lines[3] = sample_id + lines[3][lines[3].index(","):]
        (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 4 malformed"):
            ds.load(tmp_path)

    def test_non_utf8_labels_name_the_offset(self, tmp_path):
        ds.save(ds.generate(small_spec(num_samples=10)), tmp_path)
        blob = bytearray((tmp_path / "labels.csv").read_bytes())
        blob[40] = 0xFF
        (tmp_path / "labels.csv").write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="labels.csv is not UTF-8") as err:
            ds.load(tmp_path)
        assert err.value.offset == 40

    def test_oversized_labels_field_raises_format_error(self, tmp_path):
        ds.save(ds.generate(small_spec(num_samples=10)), tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        lines[3] += "0" * 200_000  # beyond the csv module's field size limit
        (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="labels.csv is not valid CSV"):
            ds.load(tmp_path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_pixel_names_its_offset(self, tmp_path, value):
        data = ds.generate(small_spec(num_samples=10))
        data.images[3, 0, 5, 7] = value
        data.images[6, 0, 1, 2] = value  # only the first bad pixel is named
        ds.save(data, tmp_path)
        with pytest.raises(FormatError, match="NaN or an infinite pixel") as err:
            ds.load(tmp_path)
        flat = np.ravel_multi_index((3, 0, 5, 7), data.images.shape)
        assert err.value.offset == 24 + 4 * flat

    def test_ungrouped_splits_load(self, tmp_path):
        # a split made elsewhere may put a group in several folds; loading accepts that
        data = ds.generate(small_spec())
        order = np.random.default_rng(2).permutation(len(data))
        folds = {"train": order[:140], "val": order[140:160], "test": order[160:]}
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
        folds = {name: idx.tolist() for name, idx in ds.split(data.group_ids, 5).items()}
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
