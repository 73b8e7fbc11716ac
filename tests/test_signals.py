import re

import numpy as np
import pytest

from densemble.autodiff import next_pow2
from densemble.config import resolve_config, synth_from_config
from densemble.fourier import band_energy, design_bank
from densemble.signals import (
    Dataset,
    SynthConfig,
    load_dataset,
    preprocess,
    save_dataset,
    split,
    synthesize,
)


def synth_cfg(**data) -> SynthConfig:
    """The default dataset shape with `data` merged over it."""
    return synth_from_config(resolve_config({"data": data}))


class TestSynthesize:
    def test_deterministic(self):
        cfg = synth_cfg(records_per_class=5)
        a = synthesize(cfg, 42)
        b = synthesize(cfg, 42)
        assert a.ids == b.ids and np.array_equal(a.labels, b.labels)
        for sa, sb in zip(a.signals, b.signals):
            assert np.array_equal(sa, sb)

    def test_seed_changes_output(self):
        cfg = synth_cfg(records_per_class=3)
        a = synthesize(cfg, 1)
        b = synthesize(cfg, 2)
        assert not np.array_equal(a.signals[0], b.signals[0])

    def test_counts_and_labels(self):
        ds = synthesize(synth_cfg(records_per_class=50), 7)
        assert len(ds) == 150
        assert ds.labels.dtype == np.int64
        for c in range(3):
            assert int((ds.labels == c).sum()) == 50

    def test_four_classes(self):
        ds = synthesize(synth_cfg(num_classes=4, records_per_class=4), 7)
        assert ds.labels.tolist() == [c for c in range(4) for _ in range(4)]
        assert len(ds) == 16

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(num_classes=5, records_per_class=50, length=512, sample_rate_hz=128.0)
        with pytest.raises(ValueError):
            SynthConfig(num_classes=3, records_per_class=1, length=512, sample_rate_hz=128.0)

    def test_linear_probe_on_band_energies(self):
        # default-config separability: a logistic probe on the two band
        # energies must reach at least 65% accuracy
        cfg = synth_cfg()
        ds = synthesize(cfg, 101)
        train_raw, test_raw = split(ds, 0.9, 202)
        train, test = preprocess(train_raw, test_raw, cfg.length)

        bank = design_bank(next_pow2(cfg.length), 0.2, 0.0)
        f_tr = np.log(band_energy(train.signals, bank) + 1e-12)
        f_te = np.log(band_energy(test.signals, bank) + 1e-12)
        mu, sd = f_tr.mean(0), f_tr.std(0)
        f_tr, f_te = (f_tr - mu) / sd, (f_te - mu) / sd
        y_tr, y_te = train.labels, test.labels

        w = np.zeros((2, cfg.num_classes))
        b = np.zeros(cfg.num_classes)
        for _ in range(2000):
            z = f_tr @ w + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            p[np.arange(len(y_tr)), y_tr] -= 1.0
            p /= len(y_tr)
            w -= 0.5 * f_tr.T @ p
            b -= 0.5 * p.sum(axis=0)
        acc = float(np.mean(np.argmax(f_te @ w + b, axis=1) == y_te))
        assert acc >= 0.65


class TestManifestRoundtrip:
    def test_write_read_bitwise(self, tmp_path):
        ds = synthesize(synth_cfg(records_per_class=10), 5)
        manifest = save_dataset(ds, tmp_path)
        back = load_dataset(manifest)
        assert len(back) == 30
        rows = manifest.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == [str(c) for c in ds.labels]
        assert back.ids == ds.ids and np.array_equal(back.labels, ds.labels)
        for sa, sb in zip(ds.signals, back.signals):
            assert np.array_equal(sa, sb)

    def test_raw_lengths_preserved(self, tmp_path):
        ds = Dataset(["a", "b"], np.array([0, 1]),
                     [np.arange(7, dtype=float), np.arange(9, dtype=float) * 0.5])
        back = load_dataset(save_dataset(ds, tmp_path))
        assert [len(s) for s in back.signals] == [7, 9]

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\n")
        with pytest.raises(ValueError, match="no records"):
            load_dataset(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("id,cls,file\nx,0,x.txt\n")
        with pytest.raises(ValueError, match="header"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\nx,0,missing.txt\n")
        with pytest.raises(FileNotFoundError, match=re.escape(
                f"{path}:2: signal file missing: {tmp_path / 'missing.txt'}")):
            load_dataset(path)

    @pytest.mark.parametrize("rel", ["", "signals"])
    def test_path_that_is_no_file_names_manifest_line(self, tmp_path, rel):
        # an empty path is the manifest's own directory
        (tmp_path / "signals").mkdir()
        path = tmp_path / "manifest.csv"
        path.write_text(f"record_id,label,path\nx,0,{rel}\n")
        with pytest.raises(FileNotFoundError,
                           match=re.escape(f"{path}:2: signal file missing: {tmp_path / rel}")):
            load_dataset(path)

    def test_unparsable_float(self, tmp_path):
        (tmp_path / "x.txt").write_text("1.0\nnot-a-number\n")
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\nx,0,x.txt\n")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'x.txt'}:2: unparsable")):
            load_dataset(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file_and_line(self, tmp_path, bad):
        (tmp_path / "x.txt").write_text(f"1.0\n\n{bad}\n2.0\n")  # blank lines count
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\nx,0,x.txt\n")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'x.txt'}:3:")):
            load_dataset(path)

    def test_row_with_extra_column_names_manifest_line(self, tmp_path):
        for name in ("a", "b"):
            (tmp_path / f"{name}.txt").write_text("1.0\n")
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\na,0,a.txt\nb,1,b.txt,extra\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            load_dataset(path)

    @pytest.mark.parametrize("rid", ["", ".", "..", "sub/a", "..\\a", "a"])
    def test_bad_record_id_names_manifest_line(self, tmp_path, rid):
        # "a" repeats the first row's id; every id names a file of an attacked set
        (tmp_path / "a.txt").write_text("1.0\n")
        path = tmp_path / "manifest.csv"
        path.write_text(f"record_id,label,path\na,0,a.txt\n{rid},1,a.txt\n")
        message = f"{path}:3: record_id {rid!r} must be a unique file name"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_dataset(path)

    def test_empty_signal(self, tmp_path):
        (tmp_path / "x.txt").write_text("\n")
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\nx,0,x.txt\n")
        with pytest.raises(ValueError, match="empty signal"):
            load_dataset(path)

    def test_label_first_appearance_order(self, tmp_path):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.txt").write_text("1.0\n")
        path = tmp_path / "manifest.csv"
        path.write_text(
            "record_id,label,path\na,afib,a.txt\nb,normal,b.txt\nc,afib,c.txt\n"
        )
        ds = load_dataset(path)
        assert len(np.unique(ds.labels)) == 2
        assert ds.labels.tolist() == [0, 1, 0]


def _zscore(x: np.ndarray) -> np.ndarray:
    # preprocess's own ops, applied to the expected values
    return (x - float(x.mean())) / max(float(x.std()), 1e-8)


class TestPreprocess:
    def test_short_signal_padded_symmetrically(self):
        # a record no affine map takes onto itself, so the z-score keeps the pad value
        ds = Dataset(["a"], np.array([0]), [np.array([1.0, 2, 3, 4])])
        for out in preprocess(ds, ds, 8):
            sig = out.signals[0]
            assert len(sig) == 8
            assert np.array_equal(sig, _zscore(np.array([0, 0, 1, 2, 3, 4, 0, 0.0])))

    def test_long_signal_center_cropped(self):
        # squares, so no other window of 4 has the same z-score
        ds = Dataset(["a"], np.array([0]), [np.arange(10.0) ** 2])
        for out in preprocess(ds, ds, 4):
            assert np.array_equal(out.signals[0], _zscore(np.array([9, 16, 25, 36.0])))

    def test_constant_dataset_zeroed(self):
        ds = Dataset(["a"], np.array([0]), [np.full(6, 3.25)])
        for out in preprocess(ds, ds, 6):
            assert np.array_equal(out.signals[0], np.zeros(6))

    def test_training_stats_recomputed(self):
        ds = synthesize(synth_cfg(records_per_class=20), 9)
        train_raw, test_raw = split(ds, 0.9, 3)
        train, _ = preprocess(train_raw, test_raw, 512)
        x = train.signals
        assert x.shape == (len(train), 512)
        assert abs(float(x.mean())) < 1e-6
        assert abs(float(x.std()) - 1.0) < 1e-3

    def test_stats_reused_for_test_split(self):
        ds = synthesize(synth_cfg(records_per_class=20), 9)
        train_raw, test_raw = split(ds, 0.9, 3)
        _, test = preprocess(train_raw, test_raw, 512)
        raw_train, raw_test = np.stack(train_raw.signals), np.stack(test_raw.signals)
        assert raw_test.shape == (len(test_raw), 512)  # already 512 long: nothing to fit
        mean, std = float(raw_train.mean()), float(raw_train.std())
        assert np.array_equal(test.signals, (raw_test - mean) / std)
        assert abs(float(test.signals.mean())) > 1e-6  # not z-scored with its own mean


class TestSplit:
    def test_counts_stratified(self):
        ds = synthesize(synth_cfg(records_per_class=50), 11)
        train, test = split(ds, 0.9, 1)
        assert len(train) == 135 and len(test) == 15
        for c in range(3):
            assert int((train.labels == c).sum()) == 45
            assert int((test.labels == c).sum()) == 5

    def test_deterministic(self):
        ds = synthesize(synth_cfg(records_per_class=10), 11)
        a = split(ds, 0.8, 5)
        b = split(ds, 0.8, 5)
        assert a[0].ids == b[0].ids and a[1].ids == b[1].ids

    @pytest.mark.parametrize("seed, fraction, train_ids, test_ids", [
        (7, 0.6, "k0 k1 k2 k5 k8", "k3 k4 k6 k7 k9"),
        (0, 0.5, "k3 k6 k7 k8", "k0 k1 k2 k4 k5 k9"),
        (3, 0.9, "k0 k2 k3 k4 k5 k6 k8", "k1 k7 k9"),
    ])
    def test_membership_golden(self, seed, fraction, train_ids, test_ids):
        # interleaved, uneven classes whose first appearance is not label order
        labels = [1, 0, 1, 1, 0, 1, 0, 1, 2, 2]
        ds = Dataset([f"k{i}" for i in range(10)], np.array(labels, dtype=np.int64),
                     [np.full(3, float(i)) for i in range(10)])
        train, test = split(ds, fraction, seed)
        assert train.ids == train_ids.split() and test.ids == test_ids.split()
        for part in (train, test):  # every column follows the ids
            assert [f"k{int(sig[0])}" for sig in part.signals] == part.ids
            assert part.labels.tolist() == [labels[int(rid[1:])] for rid in part.ids]

    def test_union_and_disjoint(self):
        ds = synthesize(synth_cfg(records_per_class=10), 11)
        train, test = split(ds, 0.8, 5)
        train_ids, test_ids = set(train.ids), set(test.ids)
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(ds.ids)

    def test_too_few_records(self):
        ds = Dataset(["a"], np.array([0]), [np.ones(4)])
        with pytest.raises(ValueError, match="fewer than 2"):
            split(ds, 0.5, 0)
