"""Run a test file in a child process with numpy's x86 SIMD dispatch off.

Every x86 dispatch target of numpy 2.x is switched off in the child only:
X86_V3 (AVX2, FMA3), X86_V4 (AVX-512) and the AVX512_ICL and AVX512_SPR
targets, which stay on when only the first two are named.  A pass counts
only if the child's numpy reports all four off; otherwise the test skips.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import quadenhance

NAMES = ("X86_V4", "X86_V3", "AVX512_ICL", "AVX512_SPR")


def _cpu_features(env, names):
    """numpy's on/off report for each CPU feature in ``names``, in a process
    started with ``env``; None for a name that numpy does not know."""
    probe = ("import json, sys, numpy as np; m = getattr(np, '_core', None) or np.core; "
             "f = m._multiarray_umath.__cpu_features__; "
             "print(json.dumps([f.get(n) for n in sys.argv[1:]]))")
    out = subprocess.run([sys.executable, "-c", probe, *names], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


def assert_passes_without_cpu_dispatch(test_file) -> None:
    """Run pytest on ``test_file``, less its ``cpu_dispatch`` tests, with every
    target in ``NAMES`` off; fail with the child's output if it fails."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("names x86 CPU features")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(NAMES))
    src = str(Path(quadenhance.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not any(_cpu_features(os.environ, NAMES)):
        pytest.skip("numpy dispatches no x86 loops beyond its baseline here")
    if any(on is not False for on in _cpu_features(env, NAMES)):
        pytest.skip("this numpy does not switch all of " + ", ".join(NAMES)
                    + " off through the variable")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", "not cpu_dispatch", str(test_file)],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
