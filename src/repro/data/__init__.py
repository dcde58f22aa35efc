"""Datasets: synthetic subspace-cluster generator and real-world stand-ins.

The paper generates synthetic data with the generator of Beer et al.
(LWDA 2019), modified as in GPU-INSCY to place clusters in *arbitrary*
subspaces, and evaluates on UCI datasets (glass, vowel, pendigits) plus
extracts of the SDSS SkyServer catalogue.  Those exact files are not
available offline, so :mod:`repro.data.realworld` synthesizes stand-ins
with the published sizes and dimensionalities (see ``DESIGN.md``).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "fingerprint": ("dataset_fingerprint",),
    "synthetic": (
        "SyntheticDataset", "generate_subspace_data", "default_dataset",
    ),
    "normalize": ("minmax_normalize",),
    "realworld": ("REAL_WORLD_SIZES", "load_dataset", "dataset_names"),
    "io": ("save_dataset", "load_saved_dataset"),
    "loaders": ("LoadedTable", "load_delimited"),
})
