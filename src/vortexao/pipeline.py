"""End-to-end adaptive-optics loop: distort, predict, conjugate, compensate.

The compensation screen is the negated prediction, applied at the receiver
plane where the distorted field was recorded. Because that field propagated
a short leg past the screen, even ground-truth conjugation at the receiver
is slightly imperfect; the perfect-knowledge bound is therefore computed
with compensation at the screen plane (which restores the beam exactly)
and the receiver-plane ground-truth figure is reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Manifest, Sample, decode_screen, synthesize_fields
from .errors import ConfigError, DomainError
from .field import ComplexField, PhaseScreen, apply_phase, times_temporary
from .metrics import ReportRow, mode_purity, mode_range, oam_decompose, psnr
from .network import DiffractiveNetwork, load_checkpoint, predict_image

# a predictor maps a distorted intensity image to an image in [0, 1]
Predictor = Callable[[Sample], np.ndarray]


def conjugate_screen(pred: PhaseScreen) -> PhaseScreen:
    """Pointwise negation; a piston-free screen stays piston-free."""
    return PhaseScreen(pred.grid, -pred.phase)


def compensate(distorted_field: ComplexField, comp: PhaseScreen) -> ComplexField:
    """Apply a compensation screen to a field at the receiver plane."""
    return apply_phase(distorted_field, comp)


def compensate_prediction(
    receiver: ComplexField, pred_img: np.ndarray, encoding: tuple[float, float]
) -> ComplexField:
    """Decode a predicted screen image, negate it and apply it at the receiver.

    The product rounds as ``compensate(receiver, conjugate_screen(pred))`` rounds it.
    """
    phase = decode_screen(pred_img, *encoding)
    if not np.all(np.isfinite(phase)):
        raise DomainError("predicted screen contains non-finite entries")
    return ComplexField(receiver.grid, times_temporary(receiver.values, np.exp(-1j * phase)))


def network_predictor(net: DiffractiveNetwork) -> Predictor:
    """Prediction through a trained network's forward pass, clipped to [0, 1]."""
    return lambda sample: predict_image(net, sample.distorted_img)


def oracle_predictor(sample: Sample) -> np.ndarray:
    """Perfect-knowledge stub: returns the stored ground-truth image."""
    return sample.gt_screen_img


def zero_predictor(sample: Sample) -> np.ndarray:
    """Identity stub: a mid-gray image decoding to the zero screen."""
    return np.full(sample.gt_screen_levels.shape, 0.5)


@dataclass
class LevelSummary:
    """Aggregate figures for one evaluated level."""

    level: int
    count: int
    mean_mp_distorted: float
    mean_mp_compensated: float
    mean_psnr: float
    mean_mp_bound_screen: float
    mean_mp_bound_receiver: float
    improved_fraction: float


def _evaluate(runs, samples, manifest):
    """Score every ``(epoch, predictor)`` run in one pass; one ``(rows, summary)`` each.

    A sample's fields, distorted mode purity and bounds are computed once for
    all runs. Only the report rows and the two bound values outlive it.
    """
    if not samples:
        raise ConfigError("cannot evaluate an empty sample list")
    levels = {s.level_index for s in samples}
    if len(levels) != 1:
        raise ConfigError(f"samples span multiple levels: {sorted(levels)}")
    level = levels.pop()
    config = manifest.config
    ell = config.ell
    ell_range = mode_range(ell)

    def purity(field: ComplexField) -> float:
        return mode_purity(oam_decompose(field, ell_range), ell)

    rows: list[list[ReportRow]] = [[] for _ in runs]
    bounds_screen, bounds_receiver = [], []
    for sample in samples:
        screen, at_screen, receiver = synthesize_fields(config, sample.id)
        mp_dist = purity(receiver)
        # both bounds apply the conjugate screen's phasor, rounded as apply_phase
        # rounds it; at the screen plane perfect knowledge restores the beam exactly
        conj = np.exp(1j * -screen.phase)
        for field, bounds in ((at_screen, bounds_screen), (receiver, bounds_receiver)):
            bounds.append(purity(ComplexField(field.grid, times_temporary(field.values, conj))))
        for (epoch, predictor), run_rows in zip(runs, rows):
            pred_img = predictor(sample)
            mp_comp = purity(compensate_prediction(receiver, pred_img, sample.encoding))
            psnr_db = psnr(pred_img, sample.gt_screen_img)
            run_rows.append(ReportRow(sample.id, level, mp_dist, mp_comp, psnr_db, epoch))

    def summarize(run_rows: list[ReportRow]) -> LevelSummary:
        return LevelSummary(
            level=level,
            count=len(run_rows),
            mean_mp_distorted=float(np.mean([r.mp_distorted for r in run_rows])),
            mean_mp_compensated=float(np.mean([r.mp_compensated for r in run_rows])),
            mean_psnr=float(np.mean([r.psnr for r in run_rows])),
            mean_mp_bound_screen=float(np.mean(bounds_screen)),
            mean_mp_bound_receiver=float(np.mean(bounds_receiver)),
            improved_fraction=sum(r.mp_compensated > r.mp_distorted for r in run_rows)
            / len(run_rows),
        )

    return [(run_rows, summarize(run_rows)) for run_rows in rows]


def evaluate_level(
    predictor: Predictor,
    samples: list[Sample],
    manifest: Manifest,
    epoch: int = 0,
) -> tuple[list[ReportRow], LevelSummary]:
    """Evaluate a predictor on samples of a single turbulence level.

    For each sample the distorted field at the receiver is regenerated from
    its seed, mode purity is measured before and after compensation with the
    negated predicted screen, and the prediction PSNR is taken against the
    stored ground-truth image. The summary also carries both perfect
    knowledge bounds (screen plane and receiver plane).
    """
    return _evaluate([(epoch, predictor)], samples, manifest)[0]


def epoch_sweep(
    checkpoints: dict[int, str],
    samples: list[Sample],
    manifest: Manifest,
) -> list[tuple[int, float, float]]:
    """Evaluate saved checkpoints, returning (epoch, mean PSNR, mean MP) rows.

    All checkpoints share one pass, so each sample's reference is computed once.
    """
    if not checkpoints:
        raise ConfigError("no checkpoints to sweep")
    epochs = sorted(checkpoints)
    runs = [(e, network_predictor(load_checkpoint(checkpoints[e]).network)) for e in epochs]
    results = _evaluate(runs, samples, manifest)
    return [(e, s.mean_psnr, s.mean_mp_compensated) for e, (_, s) in zip(epochs, results)]
