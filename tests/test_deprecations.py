"""Config construction contracts: keyword-only fields, re-validation."""

import pytest

from repro import ExperimentConfig, ServerConfig
from repro.apps import FacePipelineConfig


class TestKeywordOnlyConfigs:
    @pytest.mark.parametrize(
        "cls", [ServerConfig, ExperimentConfig, FacePipelineConfig],
        ids=["server", "experiment", "faces"],
    )
    def test_positional_construction_rejected(self, cls):
        with pytest.raises(TypeError):
            cls("tensorrt")

    def test_validate_returns_self(self):
        config = ServerConfig(max_batch_size=16)
        assert config.validate() is config
        assert ExperimentConfig().validate().concurrency == 64

    def test_validation_still_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ServerConfig(preprocess_device="tpu")
        with pytest.raises(ValueError):
            ExperimentConfig(concurrency=0)
        with pytest.raises(ValueError):
            FacePipelineConfig(faces_per_frame=-1)
