"""The CLI and the facade expose the same verbs, through the facade only."""

import inspect

import repro.__main__ as cli
from repro import api


class TestRegistrySync:
    def test_every_facade_verb_has_a_cli_subcommand(self):
        # run/sweep surface as the default table driver, not a subcommand
        assert set(cli.SUBCOMMANDS) == set(api.FACADE_VERBS) - {"run", "sweep"}

    def test_every_subcommand_is_callable(self):
        for name, entry in cli.SUBCOMMANDS.items():
            assert callable(entry), name

    def test_facade_verbs_are_exported(self):
        for name in api.FACADE_VERBS:
            assert callable(getattr(api, name)), name
            assert name in api.__all__


class TestNameCopies:
    """The spec layer's copies of the stack and configuration names."""

    def test_spec_names_equal_the_harness_names(self):
        from repro.api.spec import SPEC_CONFIGS, SPEC_STACKS
        from repro.harness.configs import CONFIG_NAMES, STACKS

        assert SPEC_CONFIGS == CONFIG_NAMES
        assert SPEC_STACKS == tuple(STACKS)


class TestNoDirectCallSites:
    """``python -m repro`` goes through :mod:`repro.api` exclusively.

    Source inspection, not mocking: a reintroduced direct harness call
    would reopen the keyword-pile back doors the facade closed.
    """

    def test_main_never_bypasses_the_facade(self):
        source = inspect.getsource(cli)
        for symbol in (
            "profile_cell",
            "compute_fault_table",
            "run_traffic_study",
            "run_resilience_study",
            "run_datalayout_study",
            "search_cell",
            "analyze_cell",
            "Experiment(",
            "run_all_configs",
        ):
            assert symbol not in source, f"CLI calls {symbol} directly"
