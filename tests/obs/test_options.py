"""PipelineOptions: the one configuration object for the pipeline.

Covers the frozen dataclass semantics, dict round-trips, and that the
pre-``PipelineOptions`` keyword arguments are gone (they raise a plain
``TypeError``).
"""

import dataclasses

import pytest

from repro.codegen import (GenerationPipeline, OptionError,
                           PipelineOptions, generate_configuration)
from repro.obs import Tracer


@pytest.fixture(scope="module")
def model():
    from repro.icelab import icelab_model
    return icelab_model()


class TestValidation:
    """Every field is checked once, in the constructor."""

    @pytest.mark.parametrize("namespace", [
        "factory", "icelab", "plant", "plant-b", "proc", "tenant-7",
        "line-0", "ns-1", "n", "a" * 63])
    def test_namespaces_in_use_pass(self, namespace):
        assert PipelineOptions(namespace=namespace).namespace == namespace

    @pytest.mark.parametrize("changes", [
        {"capacity": "abc"}, {"capacity": None}, {"capacity": 0},
        {"capacity": -1}, {"capacity": 1.5}, {"capacity": True},
        {"namespace": "Bad Name!"}, {"namespace": ""}, {"namespace": 123},
        {"namespace": "-edge"}, {"namespace": "a" * 64},
        {"namespace": "Upper"}, {"validate": "yes"},
        {"broker_url": ["x"]}, {"database_url": None}])
    def test_bad_value_raises_option_error(self, changes):
        field = next(iter(changes))
        with pytest.raises(OptionError, match=field):
            PipelineOptions(**changes)
        with pytest.raises(OptionError, match=field):
            PipelineOptions().replace(**changes)
        with pytest.raises(OptionError, match=field):
            PipelineOptions.from_dict(changes)

    def test_option_error_is_a_value_error(self):
        assert issubclass(OptionError, ValueError)


class TestDataclassSemantics:
    def test_defaults(self):
        options = PipelineOptions()
        assert options.capacity == 120
        assert options.namespace == "factory"
        assert options.validate is True
        assert options.tracer is None

    def test_frozen(self):
        options = PipelineOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.capacity = 600

    def test_replace(self):
        options = PipelineOptions(namespace="icelab")
        bigger = options.replace(capacity=600)
        assert bigger.capacity == 600
        assert bigger.namespace == "icelab"
        assert options.capacity == 120  # original untouched

    def test_equality_ignores_tracer(self):
        assert (PipelineOptions(tracer=Tracer())
                == PipelineOptions(tracer=None))

    def test_round_trip(self):
        options = PipelineOptions(capacity=300, namespace="plant",
                                  validate=False)
        restored = PipelineOptions.from_dict(options.to_dict())
        assert restored == options

    def test_to_dict_omits_tracer(self):
        options = PipelineOptions(tracer=Tracer())
        assert "tracer" not in options.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="unknown"):
            PipelineOptions.from_dict({"capicity": 600})

    def test_from_dict_reattaches_tracer(self):
        tracer = Tracer()
        options = PipelineOptions.from_dict({"capacity": 60},
                                            tracer=tracer)
        assert options.capacity == 60
        assert options.tracer is tracer


class TestPipelineIntegration:
    def test_pipeline_exposes_options(self):
        options = PipelineOptions(capacity=600, namespace="icelab")
        pipeline = GenerationPipeline(options)
        assert pipeline.options is options
        assert not hasattr(pipeline, "capacity")

    def test_default_pipeline(self):
        pipeline = GenerationPipeline()
        assert pipeline.options == PipelineOptions()

    def test_options_drive_generation(self, model):
        result = generate_configuration(
            model, options=PipelineOptions(capacity=600))
        assert result.opcua_client_count == 1


class TestLegacyShim:
    """The keyword shim is gone: only ``options=`` configures a run."""

    def test_generate_configuration_kwargs_raise_type_error(self, model):
        with pytest.raises(TypeError, match="unexpected keyword"):
            generate_configuration(model, capacity=600)

    def test_grouping_is_not_an_option(self):
        # every run packs first-fit; best-fit is the grouping oracle's
        with pytest.raises(TypeError, match="grouping"):
            PipelineOptions(grouping="best-fit")
        with pytest.raises(TypeError, match="grouping"):
            PipelineOptions.from_dict({"grouping": "best-fit"})
        assert "grouping" not in PipelineOptions().to_dict()

    def test_pipeline_kwargs_raise_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            GenerationPipeline(namespace="legacy", capacity=240)

    def test_mixing_options_and_kwargs_is_an_error(self, model):
        with pytest.raises(TypeError, match="unexpected keyword"):
            generate_configuration(
                model, options=PipelineOptions(), capacity=600)

    def test_unknown_kwarg_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected"):
            GenerationPipeline(capicity=600)

    def test_no_warning_on_new_style(self, model, recwarn):
        generate_configuration(model, options=PipelineOptions())
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert not deprecations
