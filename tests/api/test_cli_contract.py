"""The CLI's contract: spec defaults, one exit rule, bad values, README.

Every verb is run against a stubbed facade, so nothing here measures
anything: the tests check which spec a command line builds, and what the
verb prints and returns for a result with or without ``check()``
findings.
"""

import argparse
import json
import pathlib
import shlex

import pytest

from repro import api
from repro.__main__ import SUBCOMMANDS, main
from repro.resilience import OverloadSpec
from repro.traffic import TrafficSpec

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"

#: verb -> the least a command line must type
TYPED = {
    "profile": ["tcpip", "CLO"],
    "analyze": ["tcpip", "CLO"],
    "faults": ["tcpip", "OUT", "--rate", "0.5"],
    "search": ["tcpip", "CLO"],
    "traffic": ["tcpip", "OUT"],
    "resilience": ["tcpip", "OUT"],
    "datalayout": [],
}

#: verb -> the spec that command line must build
DEFAULTS = {
    "profile": api.ProfileSpec("tcpip", "CLO"),
    "analyze": api.AnalyzeSpec(run=api.RunSpec("tcpip", "CLO")),
    "faults": api.FaultsSpec("tcpip", configs=("OUT",), rate=0.5),
    "search": api.SearchSpec(run=api.RunSpec("tcpip", "CLO")),
    "traffic": api.TrafficStudySpec(traffic=TrafficSpec("tcpip", "OUT")),
    "resilience": api.ResilienceStudySpec(traffic=TrafficSpec("tcpip", "OUT")),
    "datalayout": api.DatalayoutSpec(),
}


class _Result:
    """A stand-in result of any facade verb."""

    bounds = prediction = None

    def __init__(self, findings):
        self.findings = findings

    def to_json(self):
        return {"stub": True}

    def render(self, **kwargs):
        return "stub report"

    def check(self):
        return list(self.findings)


class _Facade:
    """Records the spec each stubbed verb receives."""

    def __init__(self):
        self.specs = []
        self.findings = []

    def verb(self, name):
        def run(spec, **kwargs):
            self.specs.append((name, spec))
            return _Result(self.findings)

        return run


@pytest.fixture
def facade(monkeypatch):
    stub = _Facade()
    for name in SUBCOMMANDS:
        monkeypatch.setattr(api, name, stub.verb(name))
    return stub


class _Parsed(Exception):
    """Raised with the namespace once a command line has parsed."""


@pytest.fixture
def parse_only(monkeypatch):
    parse_args = argparse.ArgumentParser.parse_args

    def parse(self, *args, **kwargs):
        raise _Parsed(parse_args(self, *args, **kwargs))

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parse)


def test_every_verb_is_covered():
    assert set(TYPED) == set(DEFAULTS) == set(SUBCOMMANDS)


@pytest.mark.parametrize("verb", list(TYPED))
def test_an_unset_flag_takes_the_spec_default(verb, facade, capsys):
    assert main([verb, *TYPED[verb]]) == 0
    assert facade.specs == [(verb, DEFAULTS[verb])]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb", list(TYPED))
def test_no_verb_flag_declares_a_default(verb, parse_only):
    with pytest.raises(_Parsed) as parsed:
        main([verb, *TYPED[verb]])
    assert set(vars(parsed.value.args[0])) <= {"stack", "config", "rate"}


def test_typed_flags_reach_their_spec_fields(facade):
    main(["resilience", "rpc", "STD", "--warmup", "50", "--loads", "90"])
    main(["search", "rpc", "STD", "--seed", "3", "--base-seed", "7"])
    main(["traffic", "mixed", "OUT", "--flows", "300", "600", "--zipf-s", "2"])
    (_, resilience), (_, search), (_, traffic) = facade.specs
    assert resilience == api.ResilienceStudySpec(
        traffic=TrafficSpec("rpc", "STD", warmup_packets=50),
        overload=OverloadSpec(loads=(90,)),
    )
    assert search == api.SearchSpec(run=api.RunSpec("rpc", "STD", seed=7), seed=3)
    assert traffic == api.TrafficStudySpec(
        traffic=TrafficSpec("mixed", "OUT", flows=300, zipf_s=2.0),
        flow_counts=(300, 600),
    )


@pytest.mark.parametrize("json_path", [None, "-"])
@pytest.mark.parametrize("verb", list(TYPED))
def test_check_findings_exit_one(verb, json_path, facade, capsys):
    facade.findings.append("injected finding")
    argv = [verb, *TYPED[verb]] + (["--json", json_path] if json_path else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "CHECK FAIL: injected finding" in captured.err.splitlines()
    if json_path == "-":
        json.loads(captured.out)  # stdout carries the JSON alone
    else:
        assert "stub report" in captured.out


#: command line -> text its one error line must name
BAD_VALUES = [
    (["faults", "tcpip", "OUT", "--rate", "1.5"], "1.5"),
    (["traffic", "tcpip", "OUT", "--packets", "100"], "warmup_packets"),
    (["resilience", "tcpip", "OUT", "--loads", "0"], "load"),
    (["resilience", "tcpip", "OUT", "--queue-capacity", "0"], "queue_capacity"),
    (["traffic", "tcpip", "OUT", "--schemes", "bogus"], "'bogus'"),
    (["resilience", "tcpip", "OUT", "--schemes", "lru:4", "bogus"], "'bogus'"),
    (["traffic", "tcpip", "OUT", "--engine", "reference"], "'reference'"),
    (["resilience", "tcpip", "OUT", "--engine", "reference"], "'reference'"),
    (
        ["search", "tcpip", "CLO", "--budget", "2", "--check", "/nonexistent.json"],
        "/nonexistent.json",
    ),
]


@pytest.mark.parametrize("argv,named", BAD_VALUES)
def test_a_bad_value_is_a_usage_error(argv, named, facade, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert facade.specs == []  # refused before any work
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and named in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("verb", [*TYPED, "tables"])
def test_a_stream_engine_from_the_environment_is_a_usage_error(
    verb, facade, capsys, monkeypatch
):
    """An engine from ``$REPRO_SIM_ENGINE`` that a verb cannot run (an
    unknown one on every verb and the table driver, the reference engine
    on the stream verbs) is refused before any work."""
    argv = [] if verb == "tables" else [verb, *TYPED[verb]]
    refused = {"bogus": "unknown simulation engine 'bogus'"}
    if verb in ("traffic", "resilience"):
        refused["reference"] = "packed-segment fast engine"
    for engine, named in refused.items():
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2, engine
        assert facade.specs == []
        out, err = capsys.readouterr()
        assert out == ""  # no table or report was made
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == 1 and named in errors[0]
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "content", ["", "{not json", '{"stack": "tcpip"}', '["tcpip"]']
)
def test_an_unreadable_search_artifact_is_refused_before_the_search(
    content, tmp_path, facade, capsys
):
    path = tmp_path / "artifact.json"
    path.write_text(content)
    with pytest.raises(SystemExit) as exited:
        main(["search", "tcpip", "CLO", "--budget", "2", "--check", str(path)])
    assert exited.value.code == 2
    assert facade.specs == []  # no search ran
    errors = [
        line for line in capsys.readouterr().err.splitlines() if ": error: " in line
    ]
    assert len(errors) == 1 and "--check" in errors[0]


def _readme_commands():
    """Every ``python -m repro`` command line in README.md, as argv."""
    text = README.read_text().replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[3:]
        for line in text.splitlines()
        if line.startswith("python -m repro")
    ]


def test_readme_has_commands_to_check():
    assert len(_readme_commands()) >= 27


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_every_readme_command_parses(argv, parse_only):
    with pytest.raises(_Parsed):
        main(argv)
