"""Vortex-beam adaptive optics in simulated oceanic turbulence.

Generates turbulence phase screens, distorts vortex beams with them, trains
a diffractive network to predict the screen from the distorted intensity
pattern, and compensates the beam with the negated prediction, reporting
mode purity and PSNR.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    CorruptSampleError,
    DegenerateInputError,
    DomainError,
    GridMismatchError,
    PgmParseError,
    StaleTapeError,
    TrainingDivergenceError,
    VortexAOError,
)
from .field import (
    ComplexField,
    GridSpec,
    PhaseScreen,
    apply_phase,
    intensity,
    make_vortex_beam,
    normalize_image,
)
from .turbulence import (
    ScreenRng,
    TurbulenceParams,
    index_spectrum,
    make_screen,
    phase_spectrum,
    screen_variance,
    standard_levels,
)
from .propagation import (
    PropagationKernel,
    layer_transmit,
    make_kernel,
    propagate,
    propagate_adjoint,
    rayleigh_sommerfeld,
)
from .metrics import OamSpectrum, ReportRow, mode_purity, oam_decompose, psnr, write_report
from .network import (
    DiffractiveLayer,
    DiffractiveNetwork,
    TrainState,
    adam_step,
    backward,
    encode_input,
    forward,
    load_checkpoint,
    loss_mse,
    predict_screen,
    save_checkpoint,
    train,
)
from .dataset import (
    DatasetConfig,
    Manifest,
    Sample,
    decode_screen,
    desk_config,
    encode_screen,
    generate_dataset,
    load_manifest,
    load_split,
    paper_config,
    synthesize_fields,
    synthesize_sample,
    training_pairs,
)
from .images import export_pgm, import_pgm, resize_bilinear
from .pipeline import (
    LevelSummary,
    compensate,
    compensate_prediction,
    conjugate_screen,
    epoch_sweep,
    evaluate_level,
    network_predictor,
    oracle_predictor,
    zero_predictor,
)

__version__ = "0.1.0"
