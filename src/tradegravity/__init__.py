"""Trade relatedness measures and extended gravity regressions.

Pipeline stages: ingest raw bilateral flows, compute comparative advantage
and product-space proximity, evaluate the three relatedness measures on
every active trade cell, and fit pooled two-year-ahead gravity regressions
with streaming least squares. See the CLI in tradegravity.cli for the
file-based pipeline.
"""

from .complexity import (AdvantageMatrix, ProximityMatrix, RcaMatrix, binarize,
                         compute_proximity, compute_rca, export_product_space)
from .errors import (CoverageError, ParseError, SingularDesignError,
                     TradeDataError)
from .gravity import (DEFAULT_PERIODS, ExporterClass, GravityDataset,
                      LallCategory, LallConcordance, RegressionResult,
                      StreamingOLS, TrendResult, build_dataset,
                      classify_exporter, correlation_matrix, fit_ols,
                      run_split_regressions, standardize, summary_stats,
                      trend_test)
from .ingest import (CountryMeta, DyadMeta, FilterConfig, ReconcilePolicy,
                     Reporter, TradeBatch, TradeTensor, filter_countries,
                     load_trade_csv, reconcile)
from .oracle import SyntheticWorld, SyntheticWorldConfig, generate_world
from .relatedness import (DistanceWeights, RelatednessValues,
                          compute_relatedness, exporter_relatedness,
                          importer_relatedness, product_relatedness)

__version__ = "0.1.0"

__all__ = [
    "AdvantageMatrix", "CountryMeta", "CoverageError", "DEFAULT_PERIODS",
    "DistanceWeights", "DyadMeta", "ExporterClass", "FilterConfig",
    "GravityDataset", "LallCategory", "LallConcordance", "ParseError",
    "ProximityMatrix", "RcaMatrix", "ReconcilePolicy", "RegressionResult",
    "RelatednessValues", "Reporter", "SingularDesignError", "StreamingOLS",
    "SyntheticWorld", "SyntheticWorldConfig", "TradeDataError",
    "TradeBatch", "TradeTensor", "TrendResult", "binarize", "build_dataset",
    "classify_exporter", "compute_proximity", "compute_rca",
    "compute_relatedness", "correlation_matrix", "export_product_space",
    "exporter_relatedness", "filter_countries", "fit_ols", "generate_world",
    "importer_relatedness", "load_trade_csv", "product_relatedness",
    "reconcile", "run_split_regressions", "standardize", "summary_stats",
    "trend_test",
]
