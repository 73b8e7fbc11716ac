import re

import numpy as np
import pytest

from densemble.autodiff import next_pow2
from densemble.fourier import band_energy, design_bank
from densemble.signals import (
    Dataset,
    NormalizationStats,
    Record,
    SynthConfig,
    load_dataset,
    preprocess,
    save_dataset,
    split,
    synthesize,
)


class TestSynthesize:
    def test_deterministic(self):
        cfg = SynthConfig(records_per_class=5)
        a = synthesize(cfg, 42)
        b = synthesize(cfg, 42)
        for ra, rb in zip(a.records, b.records):
            assert ra.id == rb.id and ra.label == rb.label
            assert np.array_equal(ra.signal, rb.signal)

    def test_seed_changes_output(self):
        cfg = SynthConfig(records_per_class=3)
        a = synthesize(cfg, 1)
        b = synthesize(cfg, 2)
        assert not np.array_equal(a.records[0].signal, b.records[0].signal)

    def test_counts_and_labels(self):
        ds = synthesize(SynthConfig(num_classes=3, records_per_class=50), 7)
        assert len(ds) == 150
        labels = ds.labels_array()
        for c in range(3):
            assert int((labels == c).sum()) == 50

    def test_four_classes(self):
        ds = synthesize(SynthConfig(num_classes=4, records_per_class=4), 7)
        assert ds.num_classes == 4
        assert len(ds) == 16

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(num_classes=5)
        with pytest.raises(ValueError):
            SynthConfig(records_per_class=1)

    def test_linear_probe_on_band_energies(self):
        # default-config separability: a logistic probe on the two band
        # energies must reach at least 65% accuracy
        cfg = SynthConfig()
        ds = synthesize(cfg, 101)
        train_raw, test_raw = split(ds, 0.9, 202)
        train = preprocess(train_raw, cfg.length)
        test = preprocess(test_raw, cfg.length, stats=train.normalization)

        bank = design_bank(next_pow2(cfg.length), 0.2, 0.0)
        f_tr = np.log(band_energy(train.signals_matrix(), bank) + 1e-12)
        f_te = np.log(band_energy(test.signals_matrix(), bank) + 1e-12)
        mu, sd = f_tr.mean(0), f_tr.std(0)
        f_tr, f_te = (f_tr - mu) / sd, (f_te - mu) / sd
        y_tr, y_te = train.labels_array(), test.labels_array()

        w = np.zeros((2, train.num_classes))
        b = np.zeros(train.num_classes)
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
        ds = synthesize(SynthConfig(num_classes=3, records_per_class=10), 5)
        manifest = save_dataset(ds, tmp_path)
        back = load_dataset(manifest)
        assert len(back) == 30
        assert back.num_classes == 3
        for ra, rb in zip(ds.records, back.records):
            assert ra.id == rb.id and ra.label == rb.label
            assert np.array_equal(ra.signal, rb.signal)

    def test_raw_lengths_preserved(self, tmp_path):
        ds = Dataset(
            records=[
                Record("a", np.arange(7, dtype=float), 0),
                Record("b", np.arange(9, dtype=float) * 0.5, 1),
            ],
            num_classes=2,
            label_names=["0", "1"],
        )
        back = load_dataset(save_dataset(ds, tmp_path))
        assert [len(r.signal) for r in back.records] == [7, 9]

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
        with pytest.raises(FileNotFoundError):
            load_dataset(path)

    def test_unparsable_float(self, tmp_path):
        (tmp_path / "x.txt").write_text("1.0\nnot-a-number\n")
        path = tmp_path / "manifest.csv"
        path.write_text("record_id,label,path\nx,0,x.txt\n")
        with pytest.raises(ValueError, match="unparsable"):
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
        assert ds.label_names == ["afib", "normal"]
        assert [r.label for r in ds.records] == [0, 1, 0]


class TestPreprocess:
    def test_short_signal_padded_symmetrically(self):
        ds = Dataset([Record("a", np.ones(4), 0)], 1, ["0"])
        out = preprocess(ds, 8, stats=NormalizationStats(0.0, 1.0))
        sig = out.records[0].signal
        assert len(sig) == 8
        assert np.array_equal(sig, [0, 0, 1, 1, 1, 1, 0, 0])

    def test_long_signal_center_cropped(self):
        ds = Dataset([Record("a", np.arange(10, dtype=float), 0)], 1, ["0"])
        out = preprocess(ds, 4, stats=NormalizationStats(0.0, 1.0))
        assert np.array_equal(out.records[0].signal, [3, 4, 5, 6])

    def test_constant_dataset_zeroed(self):
        ds = Dataset([Record("a", np.full(6, 3.25), 0)], 1, ["0"])
        out = preprocess(ds, 6)
        assert np.array_equal(out.records[0].signal, np.zeros(6))

    def test_training_stats_recomputed(self):
        ds = synthesize(SynthConfig(records_per_class=20), 9)
        train_raw, _ = split(ds, 0.9, 3)
        train = preprocess(train_raw, 512)
        x = train.signals_matrix()
        assert abs(float(x.mean())) < 1e-6
        assert abs(float(x.std()) - 1.0) < 1e-3

    def test_stats_reused_for_test_split(self):
        ds = synthesize(SynthConfig(records_per_class=20), 9)
        train_raw, test_raw = split(ds, 0.9, 3)
        train = preprocess(train_raw, 512)
        test = preprocess(test_raw, 512, stats=train.normalization)
        assert test.normalization == train.normalization


class TestSplit:
    def test_counts_stratified(self):
        ds = synthesize(SynthConfig(num_classes=3, records_per_class=50), 11)
        train, test = split(ds, 0.9, 1)
        assert len(train) == 135 and len(test) == 15
        for c in range(3):
            assert int((train.labels_array() == c).sum()) == 45
            assert int((test.labels_array() == c).sum()) == 5

    def test_deterministic(self):
        ds = synthesize(SynthConfig(records_per_class=10), 11)
        a = split(ds, 0.8, 5)
        b = split(ds, 0.8, 5)
        assert a[0].ids() == b[0].ids() and a[1].ids() == b[1].ids()

    def test_union_and_disjoint(self):
        ds = synthesize(SynthConfig(records_per_class=10), 11)
        train, test = split(ds, 0.8, 5)
        train_ids, test_ids = set(train.ids()), set(test.ids())
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(ds.ids())

    def test_too_few_records(self):
        ds = Dataset([Record("a", np.ones(4), 0)], 1, ["0"])
        with pytest.raises(ValueError, match="fewer than 2"):
            split(ds, 0.5, 0)

    def test_invalid_fraction(self):
        ds = synthesize(SynthConfig(records_per_class=4), 0)
        with pytest.raises(ValueError):
            split(ds, 1.0, 0)
