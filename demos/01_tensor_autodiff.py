"""Tour of the float64 autodiff core.

Builds a few tensors, runs the primitive ops used by the attention stacks,
and verifies a gradient against central finite differences.
"""

import numpy as np

import roar3d.numerics as nx
from roar3d.numerics import Tensor, grad_check

rng = np.random.default_rng(0)

# --- forward ops ----------------------------------------------------------
x = Tensor(rng.normal(size=(4, 6)), requires_grad=True, name="x")
w = Tensor(rng.normal(size=(6, 3)), requires_grad=True, name="w")
gain = Tensor(np.ones(3), requires_grad=True, name="gain")
bias = Tensor(np.zeros(3), requires_grad=True, name="bias")

h = nx.layer_norm(nx.matmul(x, w), gain, bias)
probs = nx.softmax(h)
print("softmax rows sum to:", probs.data.sum(axis=-1))

# --- backward -------------------------------------------------------------
loss = nx.mean_all(nx.mul(probs, probs))
loss.backward()
print("loss:", float(loss.data))
print("dL/dw has shape", w.grad.shape, "and norm %.4f" % np.linalg.norm(w.grad))

# --- finite-difference verification ----------------------------------------
def f():
    h = nx.layer_norm(nx.matmul(x, w), gain, bias)
    return nx.mean_all(nx.mul(nx.softmax(h), nx.softmax(h)))

report = grad_check(f, {"x": x, "w": w, "gain": gain}, max_entries=8)
for name, err in report.items():
    print(f"grad check {name}: max rel err {err:.2e}")

# --- numerically interesting corners ---------------------------------------
print("softmax of [1000, 1000]:", nx.softmax(Tensor([1000.0, 1000.0])).data)
print("rms_norm of zeros:", nx.rms_norm(Tensor(np.zeros((1, 4))), Tensor(np.ones(4))).data)
