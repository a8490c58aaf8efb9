"""What a quadenhance process loads: SciPy only where a command computes with it.

``scipy.special`` (~26 MB resident, ~0.25 s to import) loads on the first
``gelu`` call, and it is the only SciPy module any command loads: ``import
quadenhance.cli`` and every command that runs no ``gelu`` (``cost``,
``oracle-equiv``, ``ablate-k``, ``montecarlo``, ``gradcheck`` without
``qe_mlp``, ``train`` without ``gelu``) load no ``scipy`` module at all.
No command loads ``scipy.integrate``, which would bring ``scipy.optimize``,
``scipy.sparse`` and ``scipy.linalg`` with it (another ~26 MB and
~0.17 s): ``montecarlo`` sums its cross tail in pure Python and takes its
square tail from ``math.erfc``.  The pytest process has SciPy loaded
already (``tests/oracles.py`` imports ``scipy.optimize``), so each check
runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadenhance

SPECIAL = "scipy.special"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")

CHILD = """
import json, sys
from quadenhance.cli import main

special, heavy = json.loads(sys.argv[1])

def loaded(mods):
    return [m for m in mods if m in sys.modules]

def scipy_loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

def run(argv):
    code = main(argv + ["--out", "out-" + argv[0] + "-" + argv[-1]])
    assert code == 0, (argv, code)

assert not scipy_loaded(), "import quadenhance.cli loaded " + str(scipy_loaded())
runs = [
    ["cost", "--preset", "layer-192"],
    ["train", "--config", "train.json"],
    ["oracle-equiv", "--config", "oracle.json"],
    ["gradcheck", "--config", "gradcheck.json"],
    ["ablate-k", "--config", "ablate.json"],
    ["montecarlo", "--config", "mc.json"],
]
for argv in runs:
    run(argv)
    assert not scipy_loaded(), " ".join(argv) + " loaded " + str(scipy_loaded())
run(["train", "--config", "train-gelu.json"])
assert special in sys.modules, "a gelu model trained without " + special
assert not loaded(heavy), "a gelu model loaded " + str(loaded(heavy))
"""

COLD = """
import sys
from quadenhance.cli import main

assert "scipy.special" not in sys.modules
assert main(sys.argv[1:]) == 0, sys.argv[1:]
assert "scipy.special" in sys.modules, " ".join(sys.argv[1:]) + " ran without scipy.special"
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


def _run_child(tmp_path, code, *args):
    for name, cfg in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    src = str(Path(quadenhance.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_no_command_loads_scipy_integrate(tmp_path):
    _run_child(tmp_path, CHILD, json.dumps([SPECIAL, HEAVY]))


@pytest.mark.parametrize("argv", [
    ["train", "--config", "train-gelu.json"],
    ["gradcheck", "--config", "gradcheck-mlp.json"],
], ids=lambda argv: argv[0])
def test_first_use_loads_scipy_special_from_cold(tmp_path, argv):
    _run_child(tmp_path, COLD, *argv, "--out", "out")
