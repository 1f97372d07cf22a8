"""Scale-invariant SDR and its permutation-resolved variant.

SI-SDR projects the estimate onto the reference, so any nonzero
rescaling of the estimate leaves the score unchanged.  Scores are capped
at +100 dB; an exact reconstruction hits the cap rather than producing
an infinity that poisons report arithmetic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

SI_SDR_CAP_DB = 100.0


@dataclasses.dataclass(frozen=True)
class MetricReport:
    """per_source[i] scores estimate i against its assigned reference."""

    per_source: list
    mean_si_sdr: float
    input_si_sdr: float | None = None

    def __post_init__(self):
        assigned = sorted(entry["assigned_reference"] for entry in self.per_source)
        if assigned != list(range(len(self.per_source))):
            raise ValueError(f"assignment {assigned} is not a permutation")


def si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    """10 log10(||a s||^2 / ||a s - s^||^2) with a = <s^, s>/||s||^2."""
    estimate = np.asarray(estimate, dtype=np.float64).ravel()
    reference = np.asarray(reference, dtype=np.float64).ravel()
    if estimate.shape != reference.shape:
        raise ValueError(
            f"length mismatch: estimate {estimate.shape[0]},"
            f" reference {reference.shape[0]}"
        )
    ref_energy = float(np.dot(reference, reference))
    if ref_energy == 0.0:
        raise ValueError("reference signal is all-zero")
    alpha = float(np.dot(estimate, reference)) / ref_energy
    target = alpha * reference
    target_energy = float(np.dot(target, target))
    error = target - estimate
    error_energy = float(np.dot(error, error))
    if target_energy == 0.0:
        return -np.inf
    if error_energy == 0.0:
        return SI_SDR_CAP_DB
    return min(10.0 * np.log10(target_energy / error_energy), SI_SDR_CAP_DB)


def permutation_si_sdr(estimates, references,
                       mixture: np.ndarray | None = None) -> MetricReport:
    """Assignment of estimates to references with the best mean SI-SDR.

    Solved as a linear assignment problem on the N x N score table.  An
    estimate with no projection onto a reference scores -inf against it;
    the assignment uses the fewest such pairs and reports their raw -inf
    scores.  When the mixture signal is supplied, input_si_sdr reports the
    mean SI-SDR of the unprocessed mixture against each reference.
    """
    from scipy.optimize import linear_sum_assignment  # only scoring needs scipy

    if len(estimates) != len(references):
        raise ValueError(
            f"count mismatch: {len(estimates)} estimates,"
            f" {len(references)} references"
        )
    n = len(estimates)
    if n == 0:
        raise ValueError("no signals to score")

    score_table = np.empty((n, n))
    for i, est in enumerate(estimates):
        for j, ref in enumerate(references):
            score_table[i, j] = si_sdr(est, ref)

    # the solver rejects -inf entries; a floor below the lowest finite score
    # by more than n times their range ranks assignments by their count of
    # -inf pairs first
    finite = score_table[np.isfinite(score_table)]
    floor = finite.min() - n * np.ptp(finite) - 1.0 if finite.size else 0.0
    _, best_perm = linear_sum_assignment(
        np.where(np.isneginf(score_table), floor, score_table), maximize=True)
    best_mean = float(np.mean(score_table[np.arange(n), best_perm]))

    input_score = None
    if mixture is not None:
        input_score = float(
            np.mean([si_sdr(mixture, ref) for ref in references])
        )
    per_source = [
        {"si_sdr": float(score_table[i, best_perm[i]]),
         "assigned_reference": int(best_perm[i])}
        for i in range(n)
    ]
    return MetricReport(
        per_source=per_source,
        mean_si_sdr=best_mean,
        input_si_sdr=input_score,
    )
