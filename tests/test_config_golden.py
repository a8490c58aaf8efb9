"""Pinned bytes of parsed configs and of the runs they describe.

Each config below is parsed by its ``from_dict`` and echoed through
``canonical_json``, the text every run writes to ``run_config.json``;
the SHA-256 of that text is pinned.  The cases cover the defaults of
every config class, the enhancer mask, quadranet, swiglu, csv and idx
datasets, integer values given for float keys and GradcheckConfig's
precision-dependent tolerance.  A few small train and ablate runs also
pin the bytes of ``metrics.csv``, ``final.qen1`` and ``grid.csv``.
Oracle-equiv and gradcheck runs through ``cli.main`` pin
``oracle_equiv.csv`` and ``gradcheck.csv``, whose bytes depend on every
integer the check instance builders draw; they were recorded while the
builders still drew one integer per call.  The config digests were
recorded with the hand-written parsers that the schema-driven one
replaced; the ``final.qen1`` ones were re-recorded for each new QEN1
checksum, last for version 3, the only one written or read, over records
whose bytes have not changed since version 1.
"""

import hashlib
import json

import pytest

from quadenhance.cli import main

from quadenhance.config import (AblateConfig, CostConfig, GradcheckConfig,
                                MonteCarloConfig, OracleEquivConfig, TrainConfig,
                                canonical_json)
from quadenhance.training import ablate_run, train_run

_SGD = {"algo": "sgd", "lr": 1}
_ADAM = {"algo": "adam", "lr": 0.01, "beta1": 0.8, "beta2": 0.99, "eps": 1e-7}


def _train(model, dataset, **extra):
    return {"model": model, "dataset": dataset, "optimizer": _SGD,
            "epochs": 2, "batch_size": 4, **extra}


CONFIGS = {
    "train-defaults": (TrainConfig, _train({"type": "qe_mlp", "layer_dims": [2, 2]},
                                           {"name": "xor"})),
    "train-mask": (TrainConfig, {
        "model": {"type": "qe_mlp", "layer_dims": [4, 5, 3], "activation": "relu",
                  "enhancer": [True, False], "shifts": [-1, 2], "exempt_final": True},
        "dataset": {"name": "quadratic_target", "n": 4, "d": 3, "shifts": [1, -1],
                    "seed": 5, "size": 24, "valid_fraction": 0.25},
        "optimizer": _ADAM, "epochs": 3, "batch_size": 8, "seed": 7, "dtype": "f64"}),
    "train-quadranet": (TrainConfig, _train(
        {"type": "quadranet", "n": 2, "d": 3, "bias": True},
        {"name": "blobs", "classes": 3, "size": 30, "noise": 0.5, "seed": 2},
        dtype="f64", seed=1)),
    "train-swiglu": (TrainConfig, _train(
        {"type": "swiglu", "n": 2, "d": 2},
        {"name": "circles", "classes": 2, "size": 40, "noise": 0.1, "seed": 3,
         "valid_fraction": 0.5})),
    "train-xor-encoding": (TrainConfig, _train(
        {"type": "qe_mlp", "layer_dims": [2, 3, 2], "activation": "identity"},
        {"name": "xor", "encoding": -1})),
    "train-csv-named": (TrainConfig, _train(
        {"type": "qe_mlp", "layer_dims": [3, 1]},
        {"name": "csv", "path": "data/table.csv", "label_column": "y", "has_header": True,
         "classification": False, "valid_fraction": 0.5})),
    "train-csv-index": (TrainConfig, _train(
        {"type": "qe_mlp", "layer_dims": [3, 2]},
        {"name": "csv", "path": "data/table.csv", "label_column": 2, "has_header": False})),
    "train-idx": (TrainConfig, _train(
        {"type": "qe_mlp", "layer_dims": [784, 10]},
        {"name": "idx", "images": "data/img.idx", "labels": "data/lab.idx",
         "valid_fraction": 0.1})),
    "ablate-defaults": (AblateConfig, {
        "k_sets": [[], [1]], "dims": [4], "optimizer": {"algo": "sgd", "lr": 0.05},
        "epochs": 2, "batch_size": 8}),
    "ablate-full": (AblateConfig, {
        "k_sets": [[1], [-1, 1]], "dims": [4, 8], "seeds": [3, 4, 5, 6],
        "optimizer": _ADAM, "epochs": 2, "batch_size": 8, "dataset_size": 64,
        "target_shifts": [1, -2], "input_dim": 6, "dtype": "f64"}),
    "gradcheck-defaults": (GradcheckConfig, {}),
    "gradcheck-f32": (GradcheckConfig, {"precision": "f32"}),
    "gradcheck-full": (GradcheckConfig, {
        "families": ["swiglu", "qe_layer"], "instances": 3, "tol": 1e-5, "step": 1e-7,
        "precision": "f64", "seed": 4}),
    "oracle-defaults": (OracleEquivConfig, {}),
    "oracle-full": (OracleEquivConfig, {"instances": 5, "seed": 2, "precision": "f32",
                                        "max_dim": 8}),
    "montecarlo-defaults": (MonteCarloConfig, {}),
    "montecarlo-full": (MonteCarloConfig, {"v_list": [1, 2.5], "samples": 1000, "seed": 3}),
    "cost-preset": (CostConfig, {"preset": "layer-192"}),
    "cost-quadranet": (CostConfig, {"model": {"type": "quadranet", "n": 4, "d": 2}}),
    "cost-mlp-mask": (CostConfig, {"model": {"type": "qe_mlp", "layer_dims": [3, 4, 2],
                                             "enhancer": [True, False]}}),
}

CONFIG_DIGESTS = {
    "ablate-defaults":
        "b325025e7b2a3d28981f2fc6e051f107ad473a39915c94bf1312c5bdb3f7cd74",
    "ablate-full":
        "70b61bb90e885970521fb56679863166a78c10789a51b8cc267dd9c3a784742c",
    "cost-mlp-mask":
        "436e271caf58016dd602932a3ea738441a7a728e259efe8b5fb2b3fee2f08660",
    "cost-preset":
        "1a4f2e872a3461843cd7b5940985b57b2db29aec0c26bf08f2782fcf81ec055b",
    "cost-quadranet":
        "71775e350308fb27d6bcc11f5a9ab0e35f427fd9bc039e54d0b578a2b62f9c99",
    "gradcheck-defaults":
        "14d48492716aaffb0357a805247cf76734119ec6d98fa0a00401fbeb6ea32211",
    "gradcheck-f32":
        "0f59aefce3e93fb351f33fbe6f10cf722406c52e93fc0ca6d54dd1bacd9e4df7",
    "gradcheck-full":
        "508825a2b5016d948a1c29fb27b88c96b0d8880083348a9668ab87362aa4c032",
    "montecarlo-defaults":
        "ee09f3309f391528b11c997ec06cd3bae3a472c8c6dab4cd64c1e7ed14b5cc1a",
    "montecarlo-full":
        "fee13efcfe115d95163f6ffdd3b9c6249b0ebd9c41f2aa9f5e9178369dae8c11",
    "oracle-defaults":
        "ee761e43ccb77278912b67408333f89f7c3412b9e619b7af27ece124ec7f929c",
    "oracle-full":
        "1187498ccaa724798072254536b78bcbf975249644ff5dd96161514c9f8b884b",
    "train-csv-index":
        "912650ffa3641643f3168b0b7f8cad861e04f3f665153512cf3a9ef01e07c13e",
    "train-csv-named":
        "5ab72a005749dd0cf04c3077746ca2563b4aed9c42d61cafb8e5f2b247fa19cc",
    "train-defaults":
        "8e8c6d252fbd677e3e79a91cfc9c3161ef82fa5a61f983f3ccc2a96d128ec6ce",
    "train-idx":
        "febe3608deb9e6fd8d5c8a4ed5510709060a67a98ef5c885eea89868b3e606c4",
    "train-mask":
        "0f2c429596f40421d9eec09be9441ac67a9a50d8afde402152c00ce17dcd5717",
    "train-quadranet":
        "ccb7cd5078297b337b210faeb67beb23e8eb4d9ccd85437438a4ed4cd1a63b5b",
    "train-swiglu":
        "4d52e069503582ea916bec8af578be425135befc85c937d4b642d0e439880ad9",
    "train-xor-encoding":
        "e272d9022010080021f026add9465e149f82dc0b812ce4b454a3dc944fa42e01",
}

RUN_DIGESTS = {
    "train-defaults/metrics.csv":
        "2831c5bd896c9dc9da31e2848d9dc4710b0aa52d32f177db0bc2fbb1a8ce719c",
    "train-defaults/final.qen1":
        "7a5e9717508ed07751fd2f9252647425be925b8de905eef451c706fca49fec34",
    "train-mask/metrics.csv":
        "7fe90af79bb086dcb67f26a86e625a3db0b9319c5f608f4df7cd23d781ce7218",
    "train-mask/final.qen1":
        "5df03217bdd4e6be1caf457bbb01daf953d89203c5d0472b6dbd99d40cab09cb",
    "train-quadranet/metrics.csv":
        "3670cb1c77cb94b120be9db801fb2f8cb5c93dbc5c1a8a09762c17da35c705ee",
    "train-quadranet/final.qen1":
        "fb68b4a0049bbfd03b147fe38dabea232988ce6a4abb065c1fcefecaecd3c2f4",
    "ablate-defaults/grid.csv":
        "fd6a336e90877864be47545f6ba44e635c1a53a800e5d029323d81d0b63d2571",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_canonical_json_is_pinned(case):
    cls, raw = CONFIGS[case]
    assert _sha(canonical_json(cls.from_dict(raw)).encode()) == CONFIG_DIGESTS[case]


@pytest.mark.parametrize("case", ["train-defaults", "train-mask", "train-quadranet"])
def test_train_outputs_are_pinned(case, tmp_path):
    cls, raw = CONFIGS[case]
    train_run(cls.from_dict(raw), out_dir=tmp_path)
    assert _sha((tmp_path / "run_config.json").read_bytes()) == CONFIG_DIGESTS[case]
    for name in ("metrics.csv", "final.qen1"):
        assert _sha((tmp_path / name).read_bytes()) == RUN_DIGESTS[f"{case}/{name}"], name


def test_ablate_outputs_are_pinned(tmp_path):
    cls, raw = CONFIGS["ablate-defaults"]
    ablate_run(cls.from_dict(raw), out_dir=tmp_path)
    assert _sha((tmp_path / "run_config.json").read_bytes()) == CONFIG_DIGESTS["ablate-defaults"]
    assert _sha((tmp_path / "grid.csv").read_bytes()) == RUN_DIGESTS["ablate-defaults/grid.csv"]


CHECK_RUNS = {
    "oracle-equiv-f64": ("oracle-equiv", {"instances": 300}, "oracle_equiv.csv"),
    "oracle-equiv-f32": ("oracle-equiv", {"instances": 300, "precision": "f32", "max_dim": 8},
                         "oracle_equiv.csv"),
    "gradcheck-f64": ("gradcheck", {"instances": 8}, "gradcheck.csv"),
    "gradcheck-f32": ("gradcheck", {"instances": 8, "precision": "f32"}, "gradcheck.csv"),
}

CHECK_DIGESTS = {
    "oracle-equiv-f64":
        "8b7266e670daca13114d779d47d0da47a97711d1e6112541259273286395143e",
    "oracle-equiv-f32":
        "43f7ef5deb5d364cb974cfda63255b83d395f789a66ef006dbe0d00ed30e5630",
    "gradcheck-f64":
        "384261b3c85d7443544a8c611e6b3177ac2c849953ff21629583dad203e6af96",
    "gradcheck-f32":
        "47e9bd90beaec489135fed83714069f12b222f254ab42eb9bc7117e815578201",
}


@pytest.mark.parametrize("case", sorted(CHECK_RUNS))
def test_check_outputs_are_pinned(case, tmp_path):
    command, raw, name = CHECK_RUNS[case]
    (tmp_path / "c.json").write_text(json.dumps(raw))
    assert main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path)]) == 0
    assert _sha((tmp_path / name).read_bytes()) == CHECK_DIGESTS[case]
