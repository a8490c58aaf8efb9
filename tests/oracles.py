"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against numpy/scipy directly,
with its own conventions, so agreement with the package localizes bugs
instead of sharing them.
"""

import functools

import numpy as np
from scipy.optimize import linprog

from quadenhance import autograd as ag
from quadenhance.rng import _GOLDEN, _MASK, Rng, _finalize_int


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar triple loop with j-innermost sequential accumulation.

    Matches the package matmul contract operation for operation, so the
    comparison is exact (0 ulp), not approximate.
    """
    r, c = a.shape
    c2, k = b.shape
    assert c == c2
    out = np.zeros((r, k), dtype=a.dtype)
    for i in range(r):
        for l in range(k):
            acc = a.dtype.type(0)
            for j in range(c):
                acc = acc + a[i, j] * b[j, l]
            out[i, l] = acc
    return out


def reduce_sum_sequential(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Sum from a zero start, one scalar add at a time in index order.

    axis=None sums the leading axis repeatedly until a scalar remains,
    which is the package's documented order for a full reduction.
    """
    if axis is None:
        out = a
        while out.ndim:
            out = reduce_sum_sequential(out, 0)
        return out
    moved = np.moveaxis(a, axis, 0)
    cols = moved.reshape(moved.shape[0], int(np.prod(moved.shape[1:])))
    out = np.zeros(cols.shape[1], dtype=a.dtype)
    for c in range(cols.shape[1]):
        acc = a.dtype.type(0)
        for i in range(cols.shape[0]):
            acc = acc + cols[i, c]
        out[c] = acc
    return out.reshape(moved.shape[1:])


def naive_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Unstabilized softmax cross-entropy in extended precision."""
    z = logits.astype(np.longdouble)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.log(picked).mean())


def separable_subset(points: np.ndarray, signs: np.ndarray, subset: list[int]) -> bool:
    """LP feasibility: does an affine function classify every point in the
    subset correctly (with unit margin)?"""
    if not subset:
        return True
    dim = points.shape[1]
    # variables (u, c); constraints -s_i (u . x_i + c) <= -1
    a_ub = np.array([[-signs[i] * points[i, j] for j in range(dim)] + [-signs[i]]
                     for i in subset])
    b_ub = -np.ones(len(subset))
    res = linprog(c=np.zeros(dim + 1), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * (dim + 1), method="highs")
    return res.status == 0


def linear_cap_accuracy(points: np.ndarray, labels: np.ndarray) -> float:
    """Exhaustive upper bound on affine-classifier accuracy.

    Checks every subset of points for strict linear separability and
    returns the largest correctly-classifiable fraction.  Exponential in
    the point count; meant for tiny datasets like the XOR corners.
    """
    n = len(points)
    assert n <= 16, "exhaustive search only for tiny datasets"
    signs = 2.0 * labels - 1.0
    best = 0
    for mask in range(1 << n):
        subset = [i for i in range(n) if mask >> i & 1]
        if len(subset) <= best:
            continue
        if separable_subset(points, signs, subset):
            best = len(subset)
    return best / n


def linear_floor_mse(x: np.ndarray, y: np.ndarray) -> float:
    """In-sample MSE of the best affine fit, solved via normal equations."""
    a = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    theta = np.linalg.solve(a.T @ a, a.T @ y)
    resid = a @ theta - y
    return float(np.mean(resid ** 2))


def fused_qe_input_grad(shifts, lam_values: dict, y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Closed-form input gradient of z = (L y) * y + y (bias omitted).

    dL/dy = g * (L y) + sum_r shift_back(lam_r * g * y, r) + g, where the
    coupling L y and its adjoint are evaluated directly with np.roll.
    The package forward convention out[i] = v[(i+r) % d] is np.roll(v, -r),
    so its adjoint is np.roll(., +r).
    """
    ly = np.zeros_like(y)
    for r in shifts:
        ly += lam_values[r] * np.roll(y, -r)
    adj = np.zeros_like(y)
    for r in shifts:
        adj += np.roll(lam_values[r] * g * y, r)
    return g * ly + adj + g


def quadratic_reference_loop(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                             vs: np.ndarray) -> np.ndarray:
    """z_i = x^T V_i x + (W x)_i + b_i, one ``x @ vs[i] @ x`` per output."""
    quad = np.array([x @ vs[i] @ x for i in range(len(vs))], dtype=x.dtype)
    return quad + w @ x + b


def fnv1a64_bytewise(data: bytes) -> int:
    """FNV-1a 64, one byte at a time in Python integers (the definition)."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def splitmix_draws(seed: int, counter: int, n: int) -> np.ndarray:
    """Draws counter, ..., counter + n - 1 of stream ``seed``, each made on its
    own as a Python int: finalize((seed + (i + 1) * GOLDEN) mod 2**64)."""
    return np.array([_finalize_int((seed + (i + 1) * _GOLDEN) & _MASK)
                     for i in range(counter, counter + n)], dtype=np.uint64)


def normal_pairs(seed: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller pairs for sample indices [start, start+count), every one drawn.

    Sample j turns the raw draws 2j and 2j+1 of ``Rng(seed)`` into u1 in
    (0, 1] and u2 in [0, 1), then into (r cos 2 pi u2, r sin 2 pi u2) with
    r = sqrt(-2 log u1): the expressions Monte Carlo evaluates, in the same
    order, but for every sample rather than those that can hit.
    """
    raw = Rng(seed, counter=2 * start).next_u64(2 * count)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def fisher_yates_loop(seed: int, n: int, counter: int = 0) -> np.ndarray:
    """Fisher-Yates on an int64 array, one numpy draw and modulus per swap.

    Position i (from n-1 down to 1) swaps with draw n-1-i of
    ``Rng(seed, counter)`` mod i+1, the order ``Rng.permutation`` follows.
    """
    perm = np.arange(n, dtype=np.int64)
    if n < 2:
        return perm
    draws = Rng(seed, counter).next_u64(n - 1)
    for i in range(n - 1, 0, -1):
        j = int(draws[n - 1 - i] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def central_differences_loop(f, params: dict, name: str, step: float) -> np.ndarray:
    """(f(w + h e_i) - f(w - h e_i)) / 2h, one solo float64 evaluation per side.

    Entry i of ``params[name]`` moves to +h, then to -h, and back, and each
    point binds every parameter as a plain constant on a fresh tape: the
    per-entry loop ``gradcheck`` ran before it stacked its points.
    """
    work = {k: np.array(v, copy=True, dtype=np.float64) for k, v in params.items()}

    def evaluate() -> float:
        tape = ag.Tape()
        return float(f(tape, {k: tape.const(v) for k, v in work.items()}).value)

    flat = work[name].reshape(-1)
    numeric = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = evaluate()
        flat[i] = orig - step
        f_minus = evaluate()
        flat[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * step)
    return numeric.reshape(work[name].shape)


def sweep_instance_streams(seed: int, max_dim: int, dtype):
    """(d, n, shifts, W, b, {shift: lambda}, x) of one oracle-sweep instance,
    each drawn from its own stream one call at a time: d, n from draws 0-1
    of Rng(seed); one draw of split(1) per candidate shift (even keeps it),
    the next one picking a candidate if none was kept; W, b, lambda_i, x
    from split(2), (3), (10 + i) and (4).  Seeds 0 mod 97 take d >= 5 and
    the shifts (-2, -1, 1, 2)."""
    rng = Rng(seed)
    u, v = (int(rng.next_u64(1)[0]) for _ in range(2))
    d, n = 2 + u % (max_dim - 1), 1 + v % max_dim
    if seed % 97 == 0:
        d, shifts = max(d, 5), (-2, -1, 1, 2)
    else:
        picks = rng.split(1)
        candidates = [r for r in (-3, -2, -1, 1, 2, 3) if r % d != 0]
        shifts = tuple(r for r in candidates if int(picks.next_u64(1)[0]) % 2 == 0)
        if not shifts:
            shifts = (candidates[int(picks.next_u64(1)[0]) % len(candidates)],)
    w = (rng.split(2).uniform(d * n, -1.0, 1.0) / np.sqrt(n)).reshape(d, n).astype(dtype)
    b = rng.split(3).uniform(d, -0.5, 0.5).astype(dtype)
    lam = {r: rng.split(10 + i).uniform(d, -1.0, 1.0).astype(dtype) for i, r in enumerate(shifts)}
    x = rng.split(4).uniform(n, -0.5, 0.5).astype(dtype)
    return d, n, shifts, w, b, lam, x


def _identity_mlp(params: dict, x, keep, n_layers: int):
    """An identity-activation MLP's output on x and its reverse mode, the
    map from the output's gradient to every parameter's and x's."""
    def roll(v, r):                 # the package's roll: out[..., i] = v[..., (i + r) % d]
        return v[..., (np.arange(v.shape[-1]) + r) % v.shape[-1]]

    def shifts(i):
        return sorted(int(k[len(f"layers.{i}.lam["):-1]) for k in params
                      if k.startswith(f"layers.{i}.lam["))

    h, saved = x, []
    for i in range(n_layers):
        w, lams = params[f"layers.{i}.W"], {r: params[f"layers.{i}.lam[{r}]"] for r in shifts(i)}
        y = keep(h @ w.T)
        acc = keep(sum((keep(lams[r] * roll(y, r)) for r in lams), np.zeros_like(y)))
        z = keep(acc * y) + y if lams else y
        saved.append((h, y, acc, lams))
        h = keep(keep(z) + params[f"layers.{i}.b"])

    def backward(g):
        grads = {}
        for i in reversed(range(n_layers)):
            h, y, acc, lams = saved[i]
            grads[f"layers.{i}.b"] = keep(g.sum(axis=0))
            gy = keep(g + keep(g * acc))
            for r in lams:
                gacc = keep(g * y)
                grads[f"layers.{i}.lam[{r}]"] = keep(keep(gacc * roll(y, r)).sum(axis=0))
                gy = keep(gy + roll(keep(gacc * lams[r]), -r))
            grads[f"layers.{i}.W"] = keep(gy.T @ h)
            g = keep(gy @ params[f"layers.{i}.W"])
        grads["x"] = g
        return grads

    return h, backward


def _quadranet(params: dict, x, keep):
    """z = (Wa x) * (Wb x) + Wc x [+ b] on x and its reverse mode, as ``_identity_mlp``."""
    ha, hb = keep(x @ params["Wa"].T), keep(x @ params["Wb"].T)
    z = keep(keep(ha * hb) + keep(x @ params["Wc"].T))
    if "b" in params:
        z = keep(z + params["b"])

    def backward(g):
        ga, gb = keep(g * hb), keep(g * ha)
        grads = {"Wa": keep(ga.T @ x), "Wb": keep(gb.T @ x), "Wc": keep(g.T @ x),
                 "x": keep(keep(keep(ga @ params["Wa"]) + keep(gb @ params["Wb"]))
                           + keep(g @ params["Wc"]))}
        if "b" in params:
            grads["b"] = keep(g.sum(axis=0))
        return grads

    return z, backward


def _exact_mse(model, params: dict, x: np.ndarray, target: np.ndarray):
    """(out, S, grads, bound) of ``model``'s mse on an integer batch, in int64.

    ``model(params, x, keep)`` returns the output and its reverse mode, and
    passes every array it computes through ``keep``.  The loss is S /
    target.size, and each gradient, keyed by parameter name and ``"x"``, is
    its integer array over target.size.  ``bound`` is the largest magnitude
    the same pass reaches on the absolute values of every input, with the
    target added: no value, product or partial sum of the signed pass, in
    any summation order, is larger.  Below 2^53 it shows that int64 never
    wrapped and that a float64 pass that scales by a power of two is exact too.
    """
    def run(params, x, neg):
        arrays = []

        def keep(a):
            arrays.append(a)
            return a

        out, backward = model(params, x, keep)
        diff = keep(out + neg)
        total = keep(diff * diff).sum()
        grads = backward(keep(2 * diff))
        return out, total, grads, max(int(np.abs(a).max(initial=0)) for a in [*arrays, np.array([total])])

    out, total, grads, _ = run(params, x, -target)
    bound = run({k: np.abs(v) for k, v in params.items()}, np.abs(x), np.abs(target))[3]
    return out, total, grads, bound


def exact_identity_mlp_mse(params: dict, n_layers: int, x: np.ndarray, target: np.ndarray):
    """``_exact_mse`` of an identity-activation MLP on a batch x [B, n], with
    ``params`` keyed by the MLP's names (``layers.{i}.W``, ``.b`` and ``.lam[r]``)."""
    return _exact_mse(functools.partial(_identity_mlp, n_layers=n_layers), params, x, target)


def exact_quadranet_mse(params: dict, x: np.ndarray, target: np.ndarray):
    """``_exact_mse`` of a QuadraNet layer (``Wa``, ``Wb``, ``Wc`` and, with a
    bias, ``b``) on a batch x [B, n]."""
    return _exact_mse(_quadranet, params, x, target)
