"""Golden digests of the seven paper experiments (Figs 4, 6, 7, 9-12).

Each digest is the SHA-256 of one experiment's per-round ``(rmse, accuracy)``
series and its full-fit reference scores at ``n_simulations=3``,
``n_rounds=20``, ``seed=0``.  They were captured before the evaluation
tables were built array-native and must never be edited to make a change
pass: a different digest means the paper's figures moved.

Floats are rounded to 10 significant digits before hashing, so last-bit
BLAS differences between machines cannot flip a digest.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.evaluation.experiment import EXPERIMENT_NAMES, build_experiment, run_experiment

GOLDEN_DIGESTS = {
    "cycles_synthetic": "1d6e55e04a7ba66c663a67068abb50a1a2dc5fa8e0a6a3845d8ed172ab7a42ca",
    "bp3d_all_features": "d375aefd628eebf184f7efd0d8a1b7d3e3f1e8d95f6a3cb300ba855c37dcdbc7",
    "bp3d_area_only": "2eb5d4fe66edbb299514a62ae0adf486bfdc54747a12860889ff410150549aad",
    "matmul_full_no_tolerance": "3621b1f3d6bfa9c629d615fdc375da4dec9117f2e8e33f69194acf3cfeba0e5e",
    "matmul_subset_no_tolerance": "8fe7bfd9acbf79898761b102e0470b733f53ca47816f48a0da461dd373c2e066",
    "matmul_full_tolerance_20s": "646759c5ec5e6741a716bf999adc6ffd2b6a94658cd8cc9661db0d945f67148d",
    "matmul_subset_tolerance_5pct": "f19040d2ef59d1c81a1185b28d8949ff6d9678bb3988c0a120139c1849206b14",
}


def _rounded(values) -> list:
    return [float(f"{v:.10g}") for v in np.asarray(values, dtype=float).ravel().tolist()]


def result_digest(result) -> str:
    payload = {
        "rmse": _rounded(result.rmse),
        "accuracy": _rounded(result.accuracy),
        "reference": _rounded([result.reference_rmse, result.reference_accuracy]),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_experiment_is_pinned():
    assert set(GOLDEN_DIGESTS) == set(EXPERIMENT_NAMES)


@pytest.mark.parametrize("name", EXPERIMENT_NAMES)
def test_paper_experiment_digest(name):
    definition = build_experiment(name, n_simulations=3, n_rounds=20, seed=0)
    assert result_digest(run_experiment(definition).result) == GOLDEN_DIGESTS[name]
