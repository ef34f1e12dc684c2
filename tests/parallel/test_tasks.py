"""Sweep-point specs: picklability and row shape."""

import pickle

from repro.apps import FacePipelineConfig
from repro.core.config import ServerConfig
from repro.parallel import ExperimentPoint, run_experiment_point
from repro.serving.runner import ExperimentConfig


def _small_point(**tags):
    return ExperimentPoint(
        config=ExperimentConfig(
            server=ServerConfig(preprocess_batch_size=8),
            concurrency=4,
            warmup_requests=10,
            measure_requests=40,
        ),
        tags=tuple(tags.items()),
    )


class TestPointSpecs:
    def test_experiment_point_pickle_round_trip(self):
        point = _small_point(concurrency=4)
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert run_experiment_point(clone) == run_experiment_point(point)

    def test_tags_become_leading_row_columns(self):
        row = run_experiment_point(_small_point(skew=1.2, policy="lru"))
        keys = list(row)
        assert keys[:2] == ["skew", "policy"]
        assert row["skew"] == 1.2
        assert "throughput" in row

    def test_face_point_is_picklable(self):
        point = ExperimentPoint(
            config=ExperimentConfig(
                server=FacePipelineConfig(broker="redis", faces_per_frame=4),
                measure_requests=50,
                warmup_requests=10,
            ),
            tags=(("broker", "redis"),),
        )
        assert pickle.loads(pickle.dumps(point)) == point
