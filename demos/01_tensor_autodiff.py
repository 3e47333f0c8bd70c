"""Tour of the float64 autodiff core.

Builds a few tensors, runs the primitive ops used by the attention stacks,
and verifies a gradient against central finite differences.
"""

import numpy as np

import roar3d.numerics as nx
from roar3d.numerics import Tensor, grad_check

rng = np.random.default_rng(0)

# --- forward ops ----------------------------------------------------------
x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
gain = Tensor(np.ones(3), requires_grad=True)
bias = Tensor(np.zeros(3), requires_grad=True)

h = nx.layer_norm(nx.matmul(x, w), gain, bias)
print("layer_norm row means are zero:", np.allclose(h.data.mean(axis=-1), 0.0))
act = nx.silu(h)
print("silu of row 0:", act.data[0].round(4))

# --- backward -------------------------------------------------------------
target = Tensor(rng.normal(size=act.shape))
loss = nx.mse(act, target)
loss.backward()
print("loss:", float(loss.data))
print("dL/dw has shape", w.grad.shape, "and norm %.4f" % np.linalg.norm(w.grad))

# --- finite-difference verification ----------------------------------------
def f():
    h = nx.layer_norm(nx.matmul(x, w), gain, bias)
    return nx.mse(nx.silu(h), target)

report = grad_check(f, {"x": x, "w": w, "gain": gain}, max_entries=8)
for name, err in report.items():
    print(f"grad check {name}: max rel err {err:.2e}")

# --- numerically interesting corners ---------------------------------------
print("layer_norm of a constant row:", nx.layer_norm(Tensor([[3.0, 3.0, 3.0]]), gain, bias).data)
print("rms_norm of zeros:", nx.rms_norm(Tensor(np.zeros((1, 4))), Tensor(np.ones(4))).data)
