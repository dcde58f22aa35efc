"""End-to-end pipeline: CSV in, fitted model out, new data scored.

The production shape of using this library: load a delimited file,
fit the sklearn-style estimator with restarts, persist the result, and
score a fresh batch of observations against the saved clustering —
without re-clustering.

Run:  python examples/estimator_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.serialization import load_result, save_result
from repro.data.loaders import load_delimited
from repro.estimator import PROCLUS
from repro.eval.metrics import purity


def fabricate_csv(path: Path, n_per_class: int = 800, seed: int = 0) -> None:
    """Write a CSV of sensor readings with three regimes."""
    rng = np.random.default_rng(seed)
    header = "temp,pressure,vibration,current,humidity,rpm,regime"
    regimes = [
        ("nominal", {"temp": (0.3, 0.02), "pressure": (0.5, 0.02),
                     "rpm": (0.6, 0.02)}),
        ("overload", {"temp": (0.8, 0.03), "current": (0.9, 0.02),
                      "vibration": (0.7, 0.03)}),
        ("bearing-wear", {"vibration": (0.9, 0.02), "rpm": (0.4, 0.03),
                          "current": (0.6, 0.02)}),
    ]
    names = header.split(",")[:-1]
    lines = [header]
    for regime, traits in regimes:
        block = rng.uniform(0, 1, size=(n_per_class, len(names)))
        for trait, (mean, std) in traits.items():
            block[:, names.index(trait)] = rng.normal(mean, std, n_per_class)
        for row in np.clip(block, 0, 1):
            lines.append(",".join(f"{v:.5f}" for v in row) + f",{regime}")
    path.write_text("\n".join(lines) + "\n")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="proclus-pipeline-") as tmp:
        run_pipeline(Path(tmp))


def run_pipeline(workdir: Path) -> None:
    csv_path = workdir / "sensors.csv"
    fabricate_csv(csv_path)

    # 1. Load
    table = load_delimited(csv_path, label_column="regime")
    print(f"loaded {table.n} rows x {table.d} features from {csv_path.name}")
    print(f"features: {', '.join(table.feature_names)}")

    # 2. Fit with restarts
    model = PROCLUS(n_clusters=3, n_dimensions=3, backend="gpu-fast",
                    n_runs=5, random_state=0, a=40, b=6)
    model.fit(table.data)
    print(f"\nfitted: cost {model.cost_:.5f}, {model.n_iter_} iterations, "
          f"{model.n_outliers_} outliers")
    for i, dims in enumerate(model.cluster_subspaces_):
        traits = ", ".join(table.feature_names[j] for j in dims)
        print(f"  regime-cluster {i}: defined by [{traits}]")
    print(f"purity vs the true regimes: {purity(table.labels, model.labels_):.3f}")

    # 3. Persist and reload
    saved = save_result(model.result_, workdir / "model.npz")
    reloaded = load_result(saved)
    print(f"\nresult saved to {saved.name} and reloaded "
          f"({'identical' if reloaded.same_clustering(model.result_) else 'DIFFERENT'})")

    # 4. Score a new batch
    rng = np.random.default_rng(99)
    new_batch = rng.uniform(0, 1, size=(6, table.d)).astype(np.float32)
    new_batch[0] = table.data[0]  # one known-nominal reading
    labels = model.predict(new_batch)
    print(f"new batch labels: {labels.tolist()}  (-1 = no known regime)")


if __name__ == "__main__":
    main()
