"""The fast demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = (
    "01_tensor_autodiff.py",
    "02_shapes_and_views.py",
    "03_token_view_routing.py",
    "04_flow_model_forward.py",
    "06_metrics_and_analytics.py",
    "07_inference_overhead.py",
)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
