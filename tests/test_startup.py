"""What a quadenhance process loads: only ``montecarlo`` pulls in scipy.integrate.

``scipy.integrate`` brings ``scipy.optimize``, ``scipy.sparse`` and
``scipy.linalg`` with it (~26 MB resident, ~0.17 s to import).  The pytest
process has them loaded already (``tests/oracles.py`` imports
``scipy.optimize``), so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import quadenhance

HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")

CHILD = """
import json, sys
from quadenhance.cli import main

heavy = json.loads(sys.argv[1])

def loaded():
    return [m for m in heavy if m in sys.modules]

assert not loaded(), "import quadenhance.cli loaded " + str(loaded())
runs = [
    ["cost", "--preset", "layer-192"],
    ["train", "--config", "train.json"],
    ["oracle-equiv", "--config", "oracle.json"],
    ["gradcheck", "--config", "gradcheck.json"],
    ["ablate-k", "--config", "ablate.json"],
]
for argv in runs:
    code = main(argv + ["--out", "out-" + argv[0]])
    assert code == 0, (argv, code)
    assert not loaded(), " ".join(argv) + " loaded " + str(loaded())
assert main(["montecarlo", "--config", "mc.json", "--out", "out-montecarlo"]) == 0
assert "scipy.integrate" in sys.modules, "montecarlo ran without scipy.integrate"
"""

CONFIGS = {
    "train.json": {"model": {"type": "qe_mlp", "layer_dims": [2, 2], "activation": "identity"},
                   "dataset": {"name": "xor"}, "optimizer": {"algo": "sgd", "lr": 0.1},
                   "epochs": 2, "batch_size": 4, "seed": 3},
    "oracle.json": {"instances": 2, "seed": 5},
    "gradcheck.json": {"instances": 1, "families": ["qe_layer"]},
    "ablate.json": {"k_sets": [[], [1]], "dims": [4], "seeds": [0, 1, 2],
                    "optimizer": {"algo": "sgd", "lr": 0.1},
                    "epochs": 1, "batch_size": 8, "dataset_size": 16},
    "mc.json": {"samples": 1000, "seed": 1},
}


def test_only_montecarlo_loads_scipy_integrate(tmp_path):
    for name, cfg in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    src = str(Path(quadenhance.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(HEAVY)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
