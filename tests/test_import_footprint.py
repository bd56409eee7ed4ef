"""The serving process never imports SciPy.

SciPy costs ~0.6 s and ~40 MiB per process, and only the MNA reference
solver (``repro.xbar.mna``) and the Eq. 6/7 NNLS fit
(``repro.cost.calibration.fit_cost_params``) call it.  Both import it
inside the functions that use it, so a process that loads the package,
the CLI and the HTTP service and answers a prediction stays free of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro
from repro.core.mei import MEI, MEIConfig
from repro.nn.trainer import TrainConfig
from repro.serve import save_artifact

TINY = MEIConfig(in_groups=2, out_groups=1, hidden=6, bits=4)

_PROBE = """
import json, sys
import numpy as np
import repro, repro.__main__, repro.serve.service
from repro.serve import load_artifact
from repro.serve.batcher import InferenceEngine

model = load_artifact(sys.argv[1])
engine = InferenceEngine(model.system)
outputs = engine.predict(engine.validate([[0.25, 0.75]]))
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "outputs": np.asarray(outputs).tolist(),
}))
"""


def test_serving_process_does_not_import_scipy(tmp_path):
    rng = np.random.default_rng(0)
    mei = MEI(TINY, seed=0).train(
        rng.uniform(0.0, 1.0, (32, TINY.in_groups)),
        rng.uniform(0.0, 1.0, (32, TINY.out_groups)),
        TrainConfig(epochs=3, batch_size=16, learning_rate=0.02, shuffle_seed=0),
    )
    path = tmp_path / "model.npz"
    save_artifact(mei, path, benchmark="fft")

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, str(path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert np.asarray(report["outputs"]).shape == (1, TINY.out_groups)
    assert report["scipy"] == []
