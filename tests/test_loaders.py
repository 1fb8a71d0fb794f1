"""Loaders reject bad files with their typed errors only: hand-written
cases for each known escape, then hypothesis fuzzing over mutated
checkpoint manifests and JSONL lines. Also the typed error for an epoch
with every label missing."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gnnpeft import graphs as G
from gnnpeft.cli import main
from gnnpeft.config import ModelConfig, PeftConfig, TrainConfig
from gnnpeft.model import init_params
from gnnpeft.registry import CheckpointFormatError, load_checkpoint, save_checkpoint
from gnnpeft.training import UnlabelledEpochError, train_supervised

VOCAB = G.Vocab((2, 2), (2, 2))
FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def _checkpoint_parts(tmp_path):
    reg = init_params(ModelConfig(emb_dim=3, num_layers=1, num_tasks=1, vocab=VOCAB))
    path = tmp_path / "ok.ckpt"
    save_checkpoint(path, reg, {"kind": "encoder"})
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header), payload


def _write_checkpoint(path, manifest, payload):
    path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
    return path


class TestCheckpointManifest:
    @pytest.mark.parametrize("key", ["entries", "meta"])
    def test_missing_top_level_key(self, tmp_path, key):
        manifest, payload = _checkpoint_parts(tmp_path)
        del manifest[key]
        path = _write_checkpoint(tmp_path / "bad.ckpt", manifest, payload)
        with pytest.raises(CheckpointFormatError, match=str(path)):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["dtype", "shape", "offset", "kind", "name"])
    def test_missing_entry_key(self, tmp_path, key):
        manifest, payload = _checkpoint_parts(tmp_path)
        del manifest["entries"][0][key]
        path = _write_checkpoint(tmp_path / "bad.ckpt", manifest, payload)
        with pytest.raises(CheckpointFormatError, match=str(path)):
            load_checkpoint(path)

    def test_manifest_not_an_object(self, tmp_path):
        _, payload = _checkpoint_parts(tmp_path)
        path = _write_checkpoint(tmp_path / "bad.ckpt", ["gnnpeft-ckpt-v1"], payload)
        with pytest.raises(CheckpointFormatError, match=str(path)):
            load_checkpoint(path)

    @FUZZ
    @given(data=st.data())
    def test_mutated_manifest_raises_only_format_error(self, tmp_path, data):
        manifest, payload = _checkpoint_parts(tmp_path)
        kind = data.draw(st.sampled_from(["top", "entry", "whole"]))
        if kind == "whole":
            manifest = data.draw(json_values)
        else:
            target = (manifest if kind == "top" else
                      manifest["entries"][data.draw(
                          st.integers(0, len(manifest["entries"]) - 1))])
            key = data.draw(st.sampled_from(sorted(target)))
            if data.draw(st.booleans()):
                del target[key]
            else:
                target[key] = data.draw(json_values)
        path = _write_checkpoint(tmp_path / "fuzz.ckpt", manifest, payload)
        try:
            load_checkpoint(path)
        except CheckpointFormatError as exc:
            assert str(path) in str(exc)


def _jsonl_lines():
    ds = G.generate_synthetic(3, (3, 5), 0.5, VOCAB, 2, seed=1)
    return [json.dumps(G._graph_to_obj(g)) for g in ds.graphs]


class TestJsonlLines:
    def test_two_dimensional_labels_name_the_line(self, tmp_path):
        lines = _jsonl_lines()
        obj = json.loads(lines[1])
        obj["labels"] = [obj["labels"], obj["labels"]]
        lines[1] = json.dumps(obj)
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(G.DatasetFormatError, match=f"{path}:2"):
            G.load_jsonl(path, VOCAB)

    def test_invalid_utf8_names_the_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_bytes(_jsonl_lines()[0].encode() + b"\n\xff\xfe\n")
        with pytest.raises(G.DatasetFormatError, match=f"{path}:2"):
            G.load_jsonl(path, VOCAB)

    @FUZZ
    @given(data=st.data())
    def test_mutated_line_raises_only_format_error(self, tmp_path, data):
        lines = [line.encode() for line in _jsonl_lines()]
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["value", "drop", "whole", "bytes"]))
        if kind == "bytes":
            lines[i] = data.draw(st.binary(max_size=40)).replace(b"\n", b" ")
        elif kind == "whole":
            lines[i] = json.dumps(data.draw(json_values)).encode()
        else:
            obj = json.loads(lines[i])
            key = data.draw(st.sampled_from(sorted(obj)))
            if kind == "drop":
                del obj[key]
            else:
                obj[key] = data.draw(json_values)
            lines[i] = json.dumps(obj).encode()
        path = tmp_path / "fuzz.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        try:
            G.load_jsonl(path, VOCAB)
        except G.DatasetFormatError as exc:
            # the mutated line, or a later one whose task count it contradicts
            where = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            assert where and int(where.group(1)) >= i + 1, str(exc)


class TestUnlabelledEpoch:
    def _masked(self):
        ds = G.generate_synthetic(8, (4, 6), 0.5, VOCAB, 1, seed=2)
        masked = tuple(G.Graph(g.node_attrs, g.edges, g.edge_attrs,
                               np.full(1, -1, dtype=np.int8)) for g in ds.graphs)
        return G.Dataset(masked, VOCAB, 1)

    def test_typed_error_names_the_epoch(self):
        ds = self._masked()
        model = ModelConfig(emb_dim=4, num_layers=1, num_tasks=1, dropout=0.0,
                            vocab=VOCAB)
        with pytest.raises(UnlabelledEpochError, match="epoch 1") as info:
            train_supervised(ds, ds, init_params(model), model, PeftConfig(mode="full"),
                             TrainConfig(epochs=2, batch_size=4))
        assert info.value.epoch == 1

    def test_cli_reports_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "masked.jsonl"
        G.save_jsonl(self._masked(), path)
        code = main(["train", "--data", str(path), "--mode", "full", "--emb", "4",
                     "--layers", "1", "--tasks", "1", "--node-vocab", "2,2",
                     "--edge-vocab", "2,2", "--epochs", "1", "--batch-size", "4",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "error: epoch 1" in capsys.readouterr().err
