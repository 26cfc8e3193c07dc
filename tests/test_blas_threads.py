"""The determinism contract under BLAS threading: the hot kernels give the same
bits whatever OPENBLAS_NUM_THREADS is."""
import os
import subprocess
import sys
from pathlib import Path

import tradegravity as tg

# Hashes the three relatedness measures on the small test world, and beta and
# SE of its pooled fit, of its period and exporter splits at threads 1 and 2
# (the exporter cells read index rows), of a pooled fit read twice (the "none"
# split's pass, whose moments standardize then reuses), and of a fit over three
# whole 4096-row blocks and a partial one.
SCRIPT = """
import hashlib
import numpy as np
import tradegravity as tg

cfg = tg.SyntheticWorldConfig(n_countries=6, n_products=9, n_years=3, sparsity=0.8,
                              seed=3, forward_mode="persist")
w = tg.generate_world(cfg)
prox = tg.compute_proximity(tg.binarize(tg.compute_rca(w.tensor, w.proximity_window)))
weights = tg.DistanceWeights.from_dyads(w.tensor.countries, w.dyad_meta)
rel = {y: tg.compute_relatedness(w.tensor, prox, weights, y) for y in w.tensor.years}
ds = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
fits = [tg.fit_ols(tg.standardize(ds)[0])]
rca = tg.compute_rca(w.tensor, (2000, 2000))
for threads in (1, 2):
    fits += tg.run_split_regressions(ds, "period", periods=((2000, 2002),),
                                     threads=threads).values()
    fits += tg.run_split_regressions(ds, "exporter", rca=rca, threads=threads).values()
again = tg.build_dataset(w.tensor, rel, w.country_meta, w.dyad_meta, (2000, 2002))
fits += tg.run_split_regressions(again, "none").values()
fits.append(tg.fit_ols(tg.standardize(again)[0]))
rng = np.random.default_rng(5)
x = rng.normal(size=(3 * 4096 + 100, 16))
acc = tg.StreamingOLS([f"c{j}" for j in range(16)])
acc.add(x, x @ rng.normal(size=16) + rng.normal(size=x.shape[0]))
fits.append(acc.result())
h = hashlib.sha256()
for r in rel.values():
    for a in (r.omega, r.omega_d, r.omega_o):
        h.update(a.tobytes())
for fit in fits:
    h.update(fit.beta.tobytes() + fit.se.tobytes())
print(len(fits), h.hexdigest())
"""


def test_blas_thread_count_does_not_change_bits():
    src = Path(tg.__file__).resolve().parents[1]
    digests = set()
    for blas_threads in ("1", "2", "4"):  # never more than 4 threads
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=blas_threads)
        out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        # the pooled fit, two period and six exporter fits, the pooled fit read twice
        # and the block fit
        assert out[0] == "12", out
        digests.add(out[1])
    assert len(digests) == 1, digests
