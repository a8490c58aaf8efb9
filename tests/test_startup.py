"""What a quadenhance process loads: numpy and the package, and no SciPy.

numpy is the package's only runtime dependency; SciPy is a test oracle.
``gelu`` takes its normal cdf from ``tensor.ndtr``, a port of the Cephes
``ndtr`` that SciPy runs, and ``montecarlo`` sums its cross tail in pure
Python and takes its square tail from ``math.erfc``.  One child process
makes ``scipy`` unimportable before it imports ``quadenhance.cli``, then
runs every command, a ``gelu`` model's ``train`` and ``gradcheck`` with
``qe_mlp`` among them: each must exit 0 with no ``scipy`` module loaded.
The pytest process has SciPy loaded already (``tests/oracles.py`` imports
``scipy.optimize``), so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import quadenhance

CHILD = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from quadenhance.cli import main

def scipy_loaded():
    return [m for m, mod in sys.modules.items()
            if mod is not None and (m == "scipy" or m.startswith("scipy."))]

assert not scipy_loaded(), "import quadenhance.cli loaded " + str(scipy_loaded())
runs = [
    ["cost", "--preset", "layer-192"],
    ["train", "--config", "train.json"],
    ["train", "--config", "train-gelu.json"],
    ["oracle-equiv", "--config", "oracle.json"],
    ["gradcheck", "--config", "gradcheck.json"],
    ["gradcheck", "--config", "gradcheck-mlp.json"],
    ["ablate-k", "--config", "ablate.json"],
    ["montecarlo", "--config", "mc.json"],
]
for i, argv in enumerate(runs):
    code = main(argv + ["--out", f"out-{i}"])
    assert code == 0, (argv, code)
    assert not scipy_loaded(), " ".join(argv) + " loaded " + str(scipy_loaded())
"""

_TRAIN = {"model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
          "dataset": {"name": "xor"}, "optimizer": {"algo": "sgd", "lr": 0.1},
          "epochs": 2, "batch_size": 4, "seed": 3}

CONFIGS = {
    "train.json": _TRAIN,
    "train-gelu.json": {**_TRAIN, "epochs": 1, "model": {
        "type": "qe_mlp", "layer_dims": [2, 4, 2], "activation": "gelu"}},
    "oracle.json": {"instances": 2, "seed": 5},
    "gradcheck.json": {"instances": 1, "families": ["qe_layer"]},
    "gradcheck-mlp.json": {"instances": 1, "families": ["qe_mlp"]},
    "ablate.json": {"k_sets": [[], [1]], "dims": [4], "seeds": [0, 1, 2],
                    "optimizer": {"algo": "sgd", "lr": 0.1},
                    "epochs": 1, "batch_size": 8, "dataset_size": 16},
    "mc.json": {"samples": 1000, "seed": 1},
}


def test_no_command_loads_scipy(tmp_path):
    for name, cfg in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    src = str(Path(quadenhance.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
