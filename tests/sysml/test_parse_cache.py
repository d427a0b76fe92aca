"""Parse-layer caching and the model content fingerprint."""

import pytest

from repro.cache import ArtifactCache
from repro.fingerprint import fingerprint
from repro.obs import METRICS
from repro.sysml import load_model, parse

SOURCE_A = "part def M { attribute a : Real; } part m : M;"
SOURCE_B = "part def N { attribute b : Real; } part n : N;"


@pytest.fixture()
def cache(tmp_path):
    METRICS.reset()
    return ArtifactCache(tmp_path / "cache")


class TestParseCache:
    def test_second_load_hits_the_cache(self, cache):
        load_model(SOURCE_A, cache=cache)
        before = METRICS.snapshot()["cache.hits"]
        model = load_model(SOURCE_A, cache=cache)
        assert METRICS.snapshot()["cache.hits"] > before
        assert model.member("m") is not None

    def test_cached_and_fresh_models_are_equivalent(self, cache):
        fresh = load_model(SOURCE_A)
        load_model(SOURCE_A, cache=cache)
        cached = load_model(SOURCE_A, cache=cache)
        assert ([e.name for e in cached.owned_elements]
                == [e.name for e in fresh.owned_elements])

    def test_changed_source_misses(self, cache):
        load_model(SOURCE_A, cache=cache)
        misses_before = METRICS.snapshot()["cache.misses"]
        load_model(SOURCE_B, cache=cache)
        # the changed user source re-parses (the shared stdlib may hit)
        assert METRICS.snapshot()["cache.misses"] > misses_before

    def test_entry_under_the_previous_salt_is_a_miss(self, cache):
        # a tree pickled before SourceLocation had slots unpickles with
        # each field's name as its value, so it must never be read back
        stale = fingerprint(SOURCE_A, "<model0>",
                            salt="sysml-parse-tree/3")
        cache.put_object(stale, parse(SOURCE_A, "<model0>"))
        model = load_model(SOURCE_A, cache=cache)
        assert METRICS.snapshot().get("cache.hits", 0) == 0
        assert model.member("m") is not None

    def test_jobs_argument_is_gone(self):
        with pytest.raises(TypeError):
            load_model(SOURCE_A, SOURCE_B, jobs=2)


class TestContentFingerprint:
    def test_set_and_stable(self):
        first = load_model(SOURCE_A)
        second = load_model(SOURCE_A)
        assert first.content_fingerprint
        assert first.content_fingerprint == second.content_fingerprint

    def test_sensitive_to_source_text(self):
        assert (load_model(SOURCE_A).content_fingerprint
                != load_model(SOURCE_B).content_fingerprint)

    def test_sensitive_to_filenames(self):
        assert (load_model(SOURCE_A,
                           filenames=["x.sysml"]).content_fingerprint
                != load_model(SOURCE_A,
                              filenames=["y.sysml"]).content_fingerprint)

    def test_sensitive_to_stdlib_flag(self):
        bare = "part def M; part m : M;"  # resolvable without stdlib
        with_lib = load_model(bare, include_stdlib=True)
        without = load_model(bare, include_stdlib=False)
        assert with_lib.content_fingerprint != without.content_fingerprint
