"""The pre-``repro.api`` entry points are gone; the new names are quiet.

The ``JMake``/``EvaluationRunner`` aliases and the module forwarders
that once served the store and watch types from ``repro.journal`` and
``repro.service`` were deleted. The old spellings now fail like any
unknown name, and the supported names stay warning-free under
``-W error::DeprecationWarning``.
"""

import importlib
import warnings

import pytest

from repro import api


@pytest.fixture
def strict_deprecations():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestOldNamesAreGone:
    @pytest.mark.parametrize("module", [
        "repro", "repro.api", "repro.core", "repro.core.jmake",
        "repro.evalsuite", "repro.evalsuite.runner"])
    def test_jmake_and_evaluation_runner_are_gone(self, module):
        package = importlib.import_module(module)
        for name in ("JMake", "EvaluationRunner"):
            with pytest.raises(AttributeError):
                getattr(package, name)
            assert name not in getattr(package, "__all__", ())


class TestDisplacedModuleAttributes:
    """Store/watch types that briefly lived on repro.journal and
    repro.service: the old spellings are gone, the facade serves
    them."""

    @pytest.mark.parametrize("name", [
        "SyntheticTrafficSource", "WatchConfig", "WatchResult",
        "WatchSession", "WindowSource"])
    def test_service_watch_names_are_gone(self, name):
        import repro.service as service
        with pytest.raises(AttributeError):
            getattr(service, name)
        assert hasattr(api, name)

    def test_service_watch_submodule_is_not_shimmed(self):
        # repro.service.watch names the submodule (Python binds it on
        # the package at import), so it must never warn
        import warnings

        import repro.service as service
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            module = service.watch
        assert module.WatchSession is api.WatchSession

    @pytest.mark.parametrize("name", [
        "IngestResult", "StoredVerdict", "VerdictFilter",
        "VerdictStore", "ingest_ledger"])
    def test_journal_store_names_are_gone(self, name):
        import repro.journal as journal
        with pytest.raises(AttributeError):
            getattr(journal, name)
        assert hasattr(api, name)

    def test_unknown_attributes_still_raise(self):
        import repro.journal as journal
        import repro.service as service
        with pytest.raises(AttributeError):
            journal.NoSuchThing
        with pytest.raises(AttributeError):
            service.NoSuchThing


class TestNewNamesAreQuiet:
    def test_check_session_is_warning_free(self, strict_deprecations):
        tree = api.generate_tree()
        api.CheckSession.from_generated_tree(tree)

    def test_evaluation_session_is_warning_free(self, small_corpus,
                                                strict_deprecations):
        api.EvaluationSession(small_corpus)

    def test_facade_helpers_are_warning_free(self, small_corpus,
                                             strict_deprecations):
        api.validate_jobs(4)
        api.serve(small_corpus)

    def test_store_surface_is_warning_free(self, tmp_path,
                                           strict_deprecations):
        path = str(tmp_path / "v.sqlite")
        with api.open_store(path) as store:
            api.query_verdicts(store)
        api.janitor_report(path)
        api.VerdictFilter(commit="c1")
        api.WatchConfig(batch_size=2)
        api.resolve_outputs(None, {"stats": None})
