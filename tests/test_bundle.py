"""The bundle file: its version-1 recurrent entries store each gate's
weights under a name of its own (bundle.FILE_WEIGHTS), which loading lays
out as the model's gate-stacked arrays and saving writes back."""

import json
from pathlib import Path

import numpy as np
import pytest

from crossrisk.errors import ManifestError
from crossrisk.predictors import TrainedModelBundle
from crossrisk.predictors.bundle import ALL_PAIRS, FILE_WEIGHTS

# An all-GRU bundle of hidden size 3 with nonzero biases and normalization,
# written by the code that stored each gate's weights as arrays of their own.
OLD_BUNDLE = Path(__file__).resolve().parent / "bundle_gru3_v1.json"

# What that code predicted for FEATURES, per pair of ALL_PAIRS.
OLD_PREDICTIONS = [
    "0x1.7075a20fdd095p-1", "0x1.6c35cfcd5d1f5p-1", "0x1.584e0ef0c72c8p-1", "0x1.31fe121273183p+0",
    "0x1.2831b7ad53ba4p-1", "0x1.46c4cc8abe344p-1", "0x1.5d8aa56051f95p-1", "0x1.3581e0e992691p-1",
    "0x1.f9be9dc4cb706p-1", "0x1.77402b61ab9f0p-1", "0x1.6dd69b401baa5p-1", "0x1.02fe8b223a308p+0",
    "0x1.ad479a427a4f0p-1",
]
FEATURES = (np.arange(87).reshape(29, 3) % 7) / 4.0 - 0.5


def test_bundle_written_by_older_code_predicts_its_bits_and_saves_back_byte_identical(tmp_path):
    bundle = TrainedModelBundle.load(str(OLD_BUNDLE))
    got = [float(bundle.predictors[pair].predict_features(FEATURES)).hex() for pair in ALL_PAIRS]
    assert got == OLD_PREDICTIONS
    bundle.save(str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == OLD_BUNDLE.read_bytes()


def test_each_file_name_is_one_slice_of_one_array():
    """The file's per-gate arrays tile the model's arrays: every weight is
    stored under exactly one name."""
    model = next(iter(TrainedModelBundle.load(str(OLD_BUNDLE)).predictors.values()))
    for array, w in model.w.items():
        covered = np.zeros(w.shape, dtype=int)
        for name, (owner, index) in FILE_WEIGHTS.items():
            if owner == array:
                covered[index] += 1
        assert np.all(covered == 1), array


@pytest.mark.parametrize("name", ["w_hz", "b_r", "w_out"])
def test_per_gate_shape_error_names_the_file_array(name, tmp_path):
    doc = json.loads(OLD_BUNDLE.read_text(encoding="utf-8"))
    spec = doc["models"][4]["weights"][name]
    spec["data"] = spec["data"] + [0.5] * len(spec["data"])
    spec["shape"] = [2, *spec["shape"]]
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ManifestError, match=rf"\(i=1, q=1\): weight {name} has shape \(2, .*\), expected \("):
        TrainedModelBundle.load(str(path))
