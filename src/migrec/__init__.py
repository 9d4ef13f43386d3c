"""migrec: structured migration records from register table detections.

The library reconstructs tabular records from the detection primitives
produced over scanned parish register openings: projective de-skew from six
keypoints, DBSCAN-based table-grid reconstruction, record assembly with
repetition fill and column realignment, book-level year-sequence inference,
parish name normalization against a gazetteer, and a complete evaluation
harness.  A synthetic opening generator with full ground truth serves as
the test oracle, and the ``migrec`` CLI orchestrates the whole pipeline.
"""

from .interchange import (
    Box,
    CellHypothesis,
    CellLine,
    DetectionDocument,
    MigrationRecord,
    OpeningKeypoints,
    Point,
    TableDetection,
    TextHypothesis,
    YearDetection,
    read_document,
    read_records,
    write_document,
    write_records,
)
from .geometry import (
    Homography,
    PatchSpec,
    angle_stats,
    apply_point,
    deskew_transforms,
    edge_angle_from_vertical,
    estimate_homography,
    make_patch_spec,
    refine_keypoint,
    transform_box,
)
from .gridrec import (
    Band,
    BandPairingError,
    GridConfig,
    GridTable,
    cluster_bands,
    complete_grid,
    dbscan_1d,
    merge_split_tables,
)
from .cells import (
    ColumnSchema,
    assemble_records,
    fill_repetitions,
    realign_columns,
)
from .chrono import (
    BookYearSequence,
    ChronoConfig,
    PageObservations,
    YearObservation,
    evaluate_years,
    external_correct,
    infer_sequence,
    normalize_year_token,
)
from .normalize import (
    Gazetteer,
    MatchResult,
    detect_duplicate_books,
    filter_usable,
    match_parish,
)
from .evaluation import (
    EvalCounts,
    MetricRow,
    cer,
    class_report,
    edit_distance,
    exact_match,
    f1_score,
    filter_unreadable,
    iou,
    match_detections,
    metrics,
    split_metrics,
)
from .synth import BookFixture, OpeningFixture, SynthConfig, generate_book, generate_opening

__version__ = "0.1.0"
