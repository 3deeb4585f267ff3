"""UAV-to-ground channel models, Rician fading, and RBF-network RSS prediction."""

__version__ = "0.1.0"

import types

from .channel_models import (
    A2GParams,
    Environment,
    HataParams,
    LinkGeometry,
    SPEED_OF_LIGHT,
    a2g_path_loss,
    elevation_angle,
    environment_from_dict,
    environment_to_dict,
    fit_sigmoid,
    free_space_path_loss,
    ground_distance_for_angle,
    hata_correction,
    hata_path_loss,
    load_environments,
    mean_path_loss,
    plos_holis,
    plos_product,
    plos_sigmoid,
    slant_distance,
)
from .datagen import (
    CSV_HEADER,
    Dataset,
    FadingSpec,
    LinkBudget,
    Sample,
    budget_from_dict,
    fading_draw_db,
    features_targets,
    gen_altitude_waypoints,
    gen_distance_sweep,
    generate_from_metadata,
    metadata_path_for,
    read_curve_csv,
    read_dataset,
    rss_from_path_loss,
    split,
    write_curve_csv,
    write_dataset,
)
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    SchemaError,
    SkylinkError,
    TrainingDivergedError,
)
from .fading import (
    RicianParams,
    bessel_i0,
    k_factor,
    k_factor_db,
    params_from_k,
    rician_pdf,
    rician_pdf_kdb,
    sample_rician,
)
from .rbf_net import (
    NormStats,
    RbfConfig,
    RbfNetwork,
    SPAN_FLOOR,
    TrainReport,
    error_signal,
    gradient_check,
    init_network,
    load_model,
    save_model,
    train,
    train_step,
)

__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], types.ModuleType)
]
