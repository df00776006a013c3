"""fusecast: hybrid building-energy forecasting.

A small numpy library that fuses a data-driven forecast and a physics-based
forecast of hourly building energy through a learned combiner with a
persistent bias-correcting memory vector, plus the surrogate forecast
sources, data pipeline, metrics, and scenario harness needed to exercise it
end to end on synthetic fixtures.
"""

__version__ = "0.1.0"

from .metrics import MetricReport, cv_rmse, mae, mean_error, nmbe, rmse, smape
from .model import (
    FusionDims,
    FusionParams,
    TrainConfig,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)
from .pipeline import (
    EnergySeries,
    FeatureMatrix,
    NormStats,
    SampleBatch,
    SplitSpec,
    apply_sparsity,
    assemble_samples,
    build_feature_rows,
    fit_norm_stats,
    impute,
)
from .surrogates import (
    BuildingParams,
    OccupancySchedule,
    WeatherSeries,
    forecast_dl,
    make_truth,
    make_weather,
    simulate_physics,
    train_baseline_forecaster,
)
from .harness import RunReport, ScenarioConfig, run_ablation_imputation, run_ablation_mu, run_all, run_scenario, scenario_config
