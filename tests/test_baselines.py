"""ANN baseline and the matrix-attention variant as drop-in comparisons."""

import re

import numpy as np
import pytest

from mcdc.baselines import MODEL_KINDS, AnnHyper, AnnModel, kind_of, make_model
from mcdc.checkpoint import load_checkpoint, save_checkpoint
from mcdc.conditions import N_CONDITIONS
from mcdc.model import McdcModel, ModelHyper
from mcdc.tensor import cross_entropy, grad_check


class TestAnnForward:
    def test_zero_params_uniform(self):
        model = AnnModel(AnnHyper(temporal_len=8, hidden1=4, hidden2=3), seed=0)
        for _, p in model.parameters():
            p.data[...] = 0.0
        probs = model.predict_proba(np.random.default_rng(1).normal(size=(5, 8)))
        assert np.allclose(probs, 1.0 / N_CONDITIONS, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for mode in ("last_day", "window"):
            model = AnnModel(AnnHyper(temporal_len=8, input_mode=mode, hidden1=6, hidden2=4), seed=3)
            for _ in range(20):
                probs = model.predict_proba(rng.normal(size=(5, 8)))
                assert probs.shape == (N_CONDITIONS,)
                assert probs.sum() == pytest.approx(1.0, abs=1e-9)
                assert np.all(probs >= 0.0)

    @pytest.mark.parametrize("mode", ["last_day", "window"])
    def test_gradient_check(self, mode):
        model = AnnModel(AnnHyper(temporal_len=6, input_mode=mode, hidden1=4, hidden2=3), seed=4)
        window = np.random.default_rng(5).normal(size=(5, 6))
        params = [p for _, p in model.parameters()]
        err = grad_check(lambda: cross_entropy(model.forward(window), 2), params)
        assert err < 1e-4

    def test_last_day_mode_ignores_earlier_days(self):
        model = AnnModel(AnnHyper(temporal_len=8), seed=6)
        rng = np.random.default_rng(7)
        window_a = rng.normal(size=(5, 8))
        window_b = window_a.copy()
        window_b[:, :-1] += 5.0
        assert np.array_equal(model.predict_proba(window_a), model.predict_proba(window_b))

    def test_window_mode_sees_whole_window(self):
        model = AnnModel(AnnHyper(temporal_len=8, input_mode="window"), seed=8)
        rng = np.random.default_rng(9)
        window_a = rng.normal(size=(5, 8))
        window_b = window_a.copy()
        window_b[:, 0] += 1.0
        assert not np.array_equal(model.predict_proba(window_a), model.predict_proba(window_b))

    def test_wrong_shape_rejected(self):
        from mcdc.tensor import DimensionError

        model = AnnModel(AnnHyper(temporal_len=8), seed=10)
        with pytest.raises(DimensionError):
            model.forward(np.zeros((5, 9)))

    @pytest.mark.parametrize("name", ["temporal_len", "hidden1", "hidden2"])
    def test_hidden_sizes_below_one_refused(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            AnnHyper(**{name: 0})

    @pytest.mark.parametrize(
        "hyper_cls,name,domain",
        [(ModelHyper, "attention", "('conv', 'matrix')"), (AnnHyper, "input_mode", "('last_day', 'window')")],
    )
    def test_unknown_variant_refused_naming_the_field(self, hyper_cls, name, domain):
        with pytest.raises(ValueError, match=f"^{name} must be one of {re.escape(domain)}, got 'bogus'$"):
            hyper_cls(**{name: "bogus"})


class TestMatrixVariant:
    def test_parameter_count_exceeds_conv(self):
        conv = make_model("mcdc", temporal_len=12, seed=11)
        mat = make_model("mcdc-matrix", temporal_len=12, seed=11)
        n_conv = sum(p.data.size for _, p in conv.parameters())
        n_mat = sum(p.data.size for _, p in mat.parameters())
        assert n_mat > n_conv

    def test_output_shapes_identical(self):
        x = np.random.default_rng(12).normal(size=(5, 12))
        conv = make_model("mcdc", temporal_len=12, seed=13)
        mat = make_model("mcdc-matrix", temporal_len=12, seed=13)
        assert conv.predict_proba(x).shape == mat.predict_proba(x).shape

    def test_matrix_variant_gradient_check(self):
        model = make_model(
            "mcdc-matrix", temporal_len=6, seed=14, heads=2, kernel_temporal=3, kernel_channel=3, ffn_hidden=4
        )
        window = np.random.default_rng(15).normal(size=(5, 6))
        params = [p for _, p in model.parameters()]
        err = grad_check(lambda: cross_entropy(model.forward(window), 5), params)
        assert err < 1e-4

    def test_factory_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_model("gru", temporal_len=8, seed=16)


class TestCheckpointContainer:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_round_trip_bit_exact(self, tmp_path, kind):
        from mcdc.data import NormStats

        model = make_model(kind, temporal_len=8, seed=17)
        stats = NormStats(np.arange(5.0) + 0.123456789012345, np.arange(5.0) + 1.5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, stats)
        loaded, loaded_stats = load_checkpoint(path)
        assert kind_of(loaded) == kind
        assert type(loaded) is type(model)
        for (name_a, a), (name_b, b) in zip(model.parameters(), loaded.parameters()):
            assert name_a == name_b
            assert np.array_equal(a.data, b.data)
        assert np.array_equal(loaded_stats.mean, stats.mean)
        assert np.array_equal(loaded_stats.std, stats.std)

    def test_same_model_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(a, make_model("mcdc", temporal_len=8, seed=18))
        save_checkpoint(b, make_model("mcdc", temporal_len=8, seed=18))
        assert a.read_bytes() == b.read_bytes()

    def test_kind_tag_dispatches(self, tmp_path):
        path = tmp_path / "ann.json"
        save_checkpoint(path, make_model("ann", temporal_len=8, seed=19))
        loaded, _ = load_checkpoint(path)
        assert isinstance(loaded, AnnModel)
        assert not isinstance(loaded, McdcModel)

    @pytest.mark.parametrize(
        "case",
        [
            "unknown-name",
            "missing-name",
            "nan-value",
            "zero-std",
            "missing-hyper",
            "bogus-hyper",
            "missing-params",
            "kind-contradicts-hyper:mcdc",
            "kind-contradicts-hyper:mcdc-matrix",
        ],
    )
    def test_corrupt_checkpoint_rejected(self, tmp_path, case):
        import json

        from mcdc.checkpoint import CheckpointError
        from mcdc.data import NormStats

        path = tmp_path / "ckpt.json"
        saved = case.partition(":")[2] or "mcdc"
        save_checkpoint(path, make_model(saved, temporal_len=8, seed=20), NormStats(np.zeros(5), np.ones(5)))
        payload = json.loads(path.read_text())
        if case.startswith("kind-contradicts-hyper"):
            # the file's attention is obeyed if the kind is not checked against it
            payload["model_kind"] = "mcdc" if saved == "mcdc-matrix" else "mcdc-matrix"
            match = "attention"
        elif case == "unknown-name":
            payload["params"]["bogus"] = [[0.0]]
            match = r"unknown \['bogus'\]"
        elif case == "missing-name":
            del payload["params"]["ffn_b2"]
            match = r"missing \['ffn_b2'\]"
        elif case == "nan-value":
            payload["params"]["ffn_b1"][0][0] = float("nan")
            match = "parameter ffn_b1: non-finite"
        elif case == "missing-hyper":
            del payload["hyper"]
            match = "missing hyper block"
        elif case == "bogus-hyper":
            payload["hyper"]["bogus"] = 1
            match = r"unknown hyper keys \['bogus'\]"
        elif case == "missing-params":
            del payload["params"]
            match = "missing params block"
        else:
            payload["norm_stats"]["std"][2] = 0.0
            match = "norm_stats std"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"{re.escape(str(path))}: .*{match}"):
            load_checkpoint(path)

    def test_format_1_per_head_checkpoint_rejected(self, tmp_path):
        import json

        from mcdc.checkpoint import CheckpointError

        path = tmp_path / "v1.json"
        save_checkpoint(path, make_model("mcdc", temporal_len=8, seed=21))
        payload = json.loads(path.read_text())
        # format 1 kept each head's q, k and v kernels under their own names
        for route in ("temporal", "channel"):
            bank = payload["params"].pop(f"{route}_qkv")
            heads = len(bank) // 3
            for h in range(heads):
                for p, suffix in enumerate(("kq", "kk", "kv")):
                    payload["params"][f"{route}_head_{h}_{suffix}"] = bank[p * heads + h]
        payload["format_version"] = 1
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: unsupported checkpoint version 1$"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        import json

        from mcdc.checkpoint import CheckpointError

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
