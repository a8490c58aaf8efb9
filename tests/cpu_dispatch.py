"""Rerun bit-exactness test files in one child process with numpy's x86 SIMD
dispatch off.

``FILES`` pin the package kernels against the triple loop
(``test_tensor``), the stacked difference quotients (``test_stacked``)
and the Monte Carlo filter, which runs cos and sin on gathered subsets and
log on whole chunks (``test_montecarlo``).  Each of them has one
``cpu_dispatch`` test that calls ``assert_passes_without_cpu_dispatch``;
the first such call runs pytest on all of ``FILES`` in one child and the
others read its result.  Every x86 dispatch target of numpy 2.x is switched
off in the child only: X86_V3 (AVX2, FMA3), X86_V4 (AVX-512) and the
AVX512_ICL and AVX512_SPR targets, which stay on when only the first two
are named.  A pass counts only if the child's numpy reports all four off;
otherwise the test skips.
"""

import functools
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadenhance

NAMES = ("X86_V4", "X86_V3", "AVX512_ICL", "AVX512_SPR")
FILES = ("test_tensor.py", "test_stacked.py", "test_montecarlo.py")


def _cpu_features(env, names):
    """numpy's on/off report for each CPU feature in ``names``, in a process
    started with ``env``; None for a name that numpy does not know."""
    probe = ("import json, sys, numpy as np; m = getattr(np, '_core', None) or np.core; "
             "f = m._multiarray_umath.__cpu_features__; "
             "print(json.dumps([f.get(n) for n in sys.argv[1:]]))")
    out = subprocess.run([sys.executable, "-c", probe, *names], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return json.loads(out.stdout)


@functools.cache
def _child_run():
    """(skip reason, None) or (None, (files that failed, child output tail))
    for pytest on ``FILES``, less any ``cpu_dispatch`` test, with every target
    in ``NAMES`` off."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return "names x86 CPU features", None
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(NAMES))
    src = str(Path(quadenhance.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if not any(_cpu_features(os.environ, NAMES)):
        return "numpy dispatches no x86 loops beyond its baseline here", None
    if any(on is not False for on in _cpu_features(env, NAMES)):
        return ("this numpy does not switch all of " + ", ".join(NAMES)
                + " off through the variable"), None
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "-k", "not cpu_dispatch", *(str(Path(__file__).parent / f) for f in FILES)],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True, timeout=600)
    out = proc.stdout + proc.stderr
    failed = {f for f in FILES if re.search(rf"^(FAILED|ERROR) \S*{re.escape(f)}", out, re.M)}
    # any other nonzero exit (collection error, interrupt, no tests) or a
    # failure the summary does not place counts against every file
    if proc.returncode not in (0, 1) or (proc.returncode and not failed):
        failed = set(FILES)
    return None, (failed, proc.stdout[-3000:] + proc.stderr[-3000:])


def assert_passes_without_cpu_dispatch(test_file) -> None:
    """Fail with the child's output if any test of ``test_file`` failed in the
    dispatch-off child; skip where dispatch cannot be switched off."""
    assert Path(test_file).name in FILES, test_file
    skip, result = _child_run()
    if skip:
        pytest.skip(skip)
    failed, tail = result
    assert Path(test_file).name not in failed, tail
