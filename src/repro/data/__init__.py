"""Datasets: synthetic subspace-cluster generator and real-world stand-ins.

The paper generates synthetic data with the generator of Beer et al.
(LWDA 2019), modified as in GPU-INSCY to place clusters in *arbitrary*
subspaces, and evaluates on UCI datasets (glass, vowel, pendigits) plus
extracts of the SDSS SkyServer catalogue.  Those exact files are not
available offline, so :mod:`repro.data.realworld` synthesizes stand-ins
with the published sizes and dimensionalities (see ``DESIGN.md``).
"""

from .fingerprint import dataset_fingerprint
from .synthetic import SyntheticDataset, generate_subspace_data, default_dataset
from .normalize import minmax_normalize
from .realworld import REAL_WORLD_SIZES, load_dataset, dataset_names
from .io import save_dataset, load_saved_dataset
from .loaders import LoadedTable, load_delimited

__all__ = [
    "dataset_fingerprint",
    "SyntheticDataset",
    "generate_subspace_data",
    "default_dataset",
    "minmax_normalize",
    "REAL_WORLD_SIZES",
    "load_dataset",
    "dataset_names",
    "save_dataset",
    "load_saved_dataset",
    "LoadedTable",
    "load_delimited",
]
