import math
from fractions import Fraction

import numpy as np
import pytest

from movability.constructions import deltoid_motion
from movability.track import TrackerError, sampled_path, track_motion

from conftest import watched_variation


def test_deltoid_track_agrees_with_exact_curve():
    quad = deltoid_motion()
    m = quad.motion
    lab = m.induced_labeling()
    start = np.array(m.realize_float(1.0))
    path = track_motion(lab, start, (0, 1), steps=100, step_size=0.04, tol=1e-12)
    assert len(path.samples) == 101
    assert max(s.residual for s in path.samples) < 1e-10
    worst = 0.0
    checked = 0
    for sample in path.samples:
        x2, y2 = sample.coords[2]
        if abs(y2) < 1e-6:
            continue
        # recover the curve parameter from vertex 2 and compare everything
        ratio = x2 / y2
        disc = (3 * ratio) ** 2 + 8
        best = math.inf
        for t in ((3 * ratio + math.sqrt(disc)) / 2, (3 * ratio - math.sqrt(disc)) / 2):
            exact = np.array(m.realize_float(t))
            best = min(best, float(np.max(np.abs(exact - sample.coords))))
        worst = max(worst, best)
        checked += 1
    assert checked > 50
    assert worst <= 1e-8


def test_rigid_triangle_rejected():
    lab = {(0, 1): Fraction(1), (1, 2): Fraction(1), (0, 2): Fraction(1)}
    start = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    with pytest.raises(TrackerError, match="no flex"):
        track_motion(lab, start, (0, 1))


def test_bad_start_rejected():
    lab = {(0, 1): Fraction(1), (1, 2): Fraction(1), (2, 3): Fraction(1), (0, 3): Fraction(1)}
    start = np.array([[0.0, 0.0], [5.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(TrackerError, match="does not satisfy"):
        track_motion(lab, start, (0, 1))


def test_watched_distance_and_margin_reported():
    quad = deltoid_motion()
    m = quad.motion
    lab = m.induced_labeling()
    start = np.array(m.realize_float(0.7))
    path = track_motion(
        lab, start, (0, 1), steps=60, step_size=0.05, watched_pair=(0, 2)
    )
    assert path.watched_pair == (0, 2)
    assert watched_variation(path) > 1e-3
    assert path.injectivity_margin >= 0
    csv = path.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0].startswith("step,x0,y0")
    assert len(lines) == len(path.samples) + 1


@pytest.mark.parametrize(
    "step_size, message",
    [
        (math.inf, "step size"),
        (math.nan, "step size"),
        (0.0, "step size"),
        (-0.1, "step size"),
        # finite, but every prediction overflows the residuals
        (1e300, "diverged"),
    ],
)
def test_bad_step_size_rejected(step_size, message):
    m = deltoid_motion().motion
    start = np.array(m.realize_float(0.3))
    with pytest.raises(TrackerError, match=message):
        track_motion(m.induced_labeling(), start, (0, 1), steps=5, step_size=step_size)


@pytest.mark.parametrize("steps", [-5, 0, 2.0])
def test_bad_steps_rejected(steps):
    m = deltoid_motion().motion
    start = np.array(m.realize_float(0.3))
    with pytest.raises(TrackerError, match="steps must be a positive integer"):
        track_motion(m.induced_labeling(), start, (0, 1), steps=steps)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
def test_bad_tol_rejected(tol):
    m = deltoid_motion().motion
    start = np.array(m.realize_float(0.3))
    with pytest.raises(TrackerError, match="tol must be finite and positive"):
        track_motion(m.induced_labeling(), start, (0, 1), steps=5, tol=tol)


def test_fixed_edge_must_exist():
    lab = {(0, 1): Fraction(1)}
    with pytest.raises(TrackerError):
        track_motion(lab, np.array([[0.0, 0.0], [1.0, 0.0]]), (0, 5))


def test_sampled_path_scores_like_the_tracker():
    m = deltoid_motion().motion
    lab = m.induced_labeling()
    path = track_motion(lab, np.array(m.realize_float(1.0)), (0, 1), steps=30)
    coords = np.array([s.coords for s in path.samples])
    rescored = sampled_path(lab, coords, (0, 1), path.watched_pair)
    assert len(rescored.samples) == len(path.samples)
    for tracked, scored in zip(path.samples, rescored.samples):
        assert scored.step == tracked.step
        assert scored.residual == tracked.residual
        assert scored.min_pair_distance == tracked.min_pair_distance
        assert scored.watched_distance == tracked.watched_distance
