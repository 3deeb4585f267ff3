"""UAV-to-ground channel models, Rician fading, and RBF-network RSS prediction.

Public names load their module on first use (PEP 562), and the CLI imports each
module in the functions that call it, so a command loads only what it runs.
"""

__version__ = "0.1.0"

import importlib

_EXPORTS = {  # public name -> the module that defines it
    **dict.fromkeys((
        "A2GParams", "Environment", "HataParams", "LinkGeometry", "SPEED_OF_LIGHT",
        "a2g_path_loss", "elevation_angle", "environment_from_dict",
        "environment_to_dict", "fit_sigmoid", "free_space_path_loss",
        "ground_distance_for_angle", "hata_correction", "hata_path_loss",
        "load_environments", "mean_path_loss", "plos_holis", "plos_product",
        "plos_sigmoid", "slant_distance",
    ), "channel_models"),
    **dict.fromkeys((
        "CSV_HEADER", "Dataset", "FadingSpec", "LinkBudget", "Sample",
        "budget_from_dict", "fading_draw_db", "features_targets",
        "gen_altitude_waypoints", "gen_distance_sweep", "generate_from_metadata",
        "metadata_path_for", "read_curve_csv", "read_dataset", "read_dataset_arrays",
        "rss_from_path_loss", "split", "write_curve_csv", "write_dataset",
    ), "datagen"),
    **dict.fromkeys((
        "ConfigurationError", "DomainError", "FitError", "SchemaError",
        "SkylinkError", "TrainingDivergedError",
    ), "errors"),
    **dict.fromkeys((
        "RicianParams", "bessel_i0", "k_factor", "k_factor_db", "params_from_k",
        "rician_pdf", "rician_pdf_kdb", "sample_rician",
    ), "fading"),
    **dict.fromkeys((
        "NormStats", "RbfConfig", "RbfNetwork", "SPAN_FLOOR", "TrainReport",
        "error_signal", "fit_digest", "gradient_check", "init_network",
        "load_model", "save_model", "train", "train_step",
    ), "rbf_net"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
