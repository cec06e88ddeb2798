"""The demo scripts reproduce their committed CSVs byte for byte.

Each demo writes into ``output/`` beside itself, so it runs from a copy in a
temporary directory and the committed ``demos/output/`` stays untouched.
Demo 02 is left out: it spends seconds in Monte Carlo sampling.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMOS = {
    "01_inversion_accuracy.py": "inversion_accuracy.csv",
    "03_startup_delay.py": "startup_delay_cdf.csv",
    "04_starvation_counts.py": "count_vs_filesize.csv",
    "05_qoe_tradeoff.py": "cost_comparison.csv",
}


@pytest.mark.parametrize("script", DEMOS)
def test_demo_reproduces_its_csv(script, tmp_path):
    shutil.copy(ROOT / "demos" / script, tmp_path / script)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, script], cwd=tmp_path, check=True,
                   capture_output=True, env={**os.environ, "PYTHONPATH": pythonpath})
    csv = DEMOS[script]
    assert (tmp_path / "output" / csv).read_bytes() == \
        (ROOT / "demos" / "output" / csv).read_bytes()
