"""A tour of the differentiable-tensor substrate.

Builds a few expressions, runs the reverse pass, and corroborates every
gradient with central finite differences. Everything downstream (encoder,
decoder, losses) is written in exactly these primitives, so this is the
foundation the whole package rests on.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from paracap import tensor as T
from paracap.tensor import Tensor


def banner(text):
    print(f"\n=== {text} ===")


def main():
    rng = np.random.default_rng(0)

    banner("a scalar chain, differentiated by hand vs. by the tape")
    x = Tensor(np.array(0.7), requires_grad=True)
    # y = exp(sin-like bump): y = exp(x * x) / (1 + x * x)
    xx = x * x
    y = T.texp(xx) / (Tensor(np.array(1.0)) + xx)
    T.backward(y)
    # d/dx [exp(x^2)/(1+x^2)] = 2x * exp(x^2) * x^2 / (1+x^2)^2
    v = 0.7 * 0.7
    hand = 2 * 0.7 * np.exp(v) * v / (1 + v) ** 2
    print(f"value        {float(y.values):.10f}")
    print(f"tape grad    {float(x.grad):.10f}")
    print(f"hand grad    {hand:.10f}")
    print(f"difference   {abs(float(x.grad) - hand):.2e}")

    banner("matrix work: matmul + softmax + a curved reduction")
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    inputs = np.random.default_rng(1).normal(size=(2, 4))

    def f(w):
        h = Tensor(inputs) @ w                # (2, 3)
        p = T.softmax(h)
        return T.tsum(p * p)                  # scalar, curvature everywhere

    err = T.finite_diff_check(f, w)
    print(f"finite-difference relative error: {err:.2e}  (tolerance 1e-6)")

    banner("a composite: layer_norm -> attention-style mix -> mean")
    q = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    gain = Tensor(np.ones(6))
    bias = Tensor(np.zeros(6))

    def g(q):
        h = T.layer_norm(q, gain, bias)
        scores = T.softmax(h @ T.transpose(h))
        return T.tmean(scores @ h)

    err = T.finite_diff_check(g, q)
    print(f"finite-difference relative error: {err:.2e}")

    banner("gradients respect hard masking exactly")
    q = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    allowed = np.tril(np.ones((3, 3), dtype=bool))       # causal pattern
    # identity values make the output the attention probabilities themselves
    probs = T.attention(q, k, Tensor(np.eye(3)), allowed)
    first_two = Tensor(np.array([[1.0], [1.0], [0.0]]))  # the loss reads rows 0-1
    T.backward(T.tsum(probs * probs * first_two))
    print("attention probabilities (upper triangle masked):")
    print(np.array_str(probs.values, precision=4, suppress_small=True))
    print("the last key, masked for rows 0-1, receives exactly zero gradient:",
          bool((k.grad[2] == 0).all()))

    banner("the package-wide primitive check")
    from paracap.gradcheck import N_SEEDS, run_primitive_checks
    worst = run_primitive_checks()
    top = sorted(worst.items(), key=lambda kv: -kv[1])[:5]
    print("worst relative errors per primitive (top 5 of "
          f"{len(worst)}, {N_SEEDS} seeds each):")
    for name, e in top:
        print(f"  {name:<22} {e:.2e}")
    print("every primitive sits far below the 1e-6 gate.")


if __name__ == "__main__":
    main()
