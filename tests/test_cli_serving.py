"""The ``serve`` and ``monitor`` subcommands, run through the CLI entry point."""

import json

import pytest

from repro import telemetry
from repro.experiments.cli import main

SMALL = ["--n", "2000", "--queries", "5000", "--users", "200", "--seed", "4"]


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if the command gets as far as building a graph."""
    import repro.core.builder as builder

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built before the arguments were checked")

    for name in ("build_uniform_model", "build_skewed_model", "build_naive_model"):
        monkeypatch.setattr(builder, name, refuse)


def test_serve_prints_the_report(capsys):
    assert main(["serve", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "serving report" in out
    assert "throughput" in out and "route cache" in out
    assert "workers" not in out


def test_serve_monitor_writes_the_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    argv = ["serve", *SMALL, "--monitor", "--trace-sample", "16", "--trace-out", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[monitor] health:" in out
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) > 0


def test_monitor_prints_frames(capsys):
    assert main(["monitor", *SMALL, "--no-clear", "--refresh", "60"]) == 0
    out = capsys.readouterr().out
    assert "window.hops_mean" in out
    assert "serving report" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", *SMALL, "--monitor"],
        ["serve", *SMALL, "--trace-sample", "16"],
        ["monitor", *SMALL, "--no-clear", "--refresh", "60"],
    ],
    ids=["serve-monitor", "serve-trace-sample", "monitor"],
)
@pytest.mark.parametrize("was_on", [False, True], ids=["off", "on"])
def test_commands_leave_telemetry_as_they_found_it(argv, was_on, capsys):
    """The scrape endpoint's telemetry does not outlive the command."""
    if was_on:
        telemetry.enable()
    try:
        assert main(argv) == 0
        assert telemetry.enabled() is was_on
    finally:
        telemetry.disable()


@pytest.mark.parametrize("command", ["serve", "monitor"])
def test_workers_flag_is_gone(command, no_build, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "monitor"])
@pytest.mark.parametrize(
    "flag, value", [("--cache", "-1"), ("--trace-sample", "-4")]
)
def test_negative_sizes_fail_before_the_build(command, flag, value, no_build, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and "must be >= 0" in err


@pytest.mark.parametrize("command", ["serve", "monitor"])
@pytest.mark.parametrize("sample", [[], ["--trace-sample", "0"]], ids=["unset", "zero"])
def test_trace_out_needs_a_sample_rate(command, sample, no_build, tmp_path, capsys):
    """Without a recorder there is nothing to export, so the flag is a
    usage error rather than a silently missing file."""
    path = tmp_path / "trace.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *SMALL, *sample, "--trace-out", str(path)])
    assert exc.value.code == 2
    assert "--trace-out needs --trace-sample" in capsys.readouterr().err
    assert not path.exists()
