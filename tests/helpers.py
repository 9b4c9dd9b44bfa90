"""Shared test utilities: random graph builders, finite-difference checks and
a memory-bounded subprocess runner."""

import os
import subprocess
import sys

import numpy as np

import dirlink
from dirlink.graph import DirectedGraph


def random_graph(rng, n, p=0.2, ensure_edge=True):
    """Erdos-Renyi style directed graph without self-loops."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = np.argwhere(mask)
    if ensure_edge and len(edges) == 0:
        edges = np.array([[0, (1 % n) or 0]])
        if n == 1:
            raise ValueError("need n >= 2")
        edges = np.array([[0, 1]])
    return DirectedGraph(n, edges)


def weakly_connected_random_graph(rng, n, p=0.2):
    """Random graph made weakly connected by a directed path over a permutation."""
    g = random_graph(rng, n, p, ensure_edge=False)
    perm = rng.permutation(n)
    path = np.stack([perm[:-1], perm[1:]], axis=1)
    edges = np.vstack([g.edges, path]) if len(g.edges) else path
    return DirectedGraph(n, edges)


def rel_err(a, b, floor=1e-3):
    return abs(a - b) / max(abs(a), abs(b), floor)


def central_diff(loss_fn, tensor, idx, h=1e-5):
    """Two-point estimate of d loss / d tensor[idx]."""
    orig = tensor.data[idx]
    tensor.data[idx] = orig + h
    up = loss_fn()
    tensor.data[idx] = orig - h
    down = loss_fn()
    tensor.data[idx] = orig
    return (up - down) / (2.0 * h)


def check_gradients(loss_builder, params, rng, coords_per_tensor=3, h=1e-5, tol=1e-4):
    """Compare analytic gradients against central differences.

    loss_builder() must rebuild the graph from the current parameter data and
    return the scalar loss Tensor.  Samples a few coordinates per parameter.
    Returns the worst relative error seen.
    """
    import dirlink.autodiff as ad

    loss = loss_builder()
    ad.backward(loss, params)
    grads = [p.grad.copy() for p in params]

    def loss_value():
        return float(loss_builder().data[0, 0])

    worst = 0.0
    for p, g in zip(params, grads):
        nrow, ncol = p.data.shape
        count = min(coords_per_tensor, nrow * ncol)
        flat = rng.choice(nrow * ncol, size=count, replace=False)
        for f in flat:
            idx = (int(f) // ncol, int(f) % ncol)
            numeric = central_diff(loss_value, p, idx, h=h)
            err = rel_err(g[idx], numeric)
            worst = max(worst, err)
            assert err <= tol, (
                f"gradient mismatch at {idx}: analytic {g[idx]:.8g} vs numeric {numeric:.8g}"
            )
    return worst


_WATCHDOG = """
import os, resource, sys, threading, time

def peak_mb():
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    scale = 1024.0 ** 2 if sys.platform == "darwin" else 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale

def _watchdog(bound_mb):
    # stop at the bound instead of growing until the machine runs out
    while True:
        if peak_mb() > bound_mb:
            print(f"peak RSS passed {bound_mb:.0f} MB", flush=True)
            os._exit(3)
        time.sleep(0.02)

threading.Thread(target=_watchdog, args=(float(sys.argv[1]),), daemon=True).start()
"""


def run_under_memory_bound(child_code, bound_mb, timeout=600):
    """Run child_code in a fresh interpreter that imports dirlink from this
    checkout, stopping it once its peak RSS passes bound_mb.

    child_code prints whitespace-separated key=value pairs.  Returns them as
    a dict, plus the process's peak RSS in MB under "peak", after asserting
    a clean exit and a peak within the bound."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(dirlink.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = _WATCHDOG + child_code + '\nprint(f"peak={peak_mb():.0f}", flush=True)\n'
    proc = subprocess.run([sys.executable, "-c", code, str(bound_mb)], env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    stats = dict(kv.split("=") for kv in proc.stdout.split())
    assert float(stats["peak"]) <= bound_mb
    return stats
