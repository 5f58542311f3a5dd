"""Tests for the command-line interface (repro.cli)."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments.harness import Check, Experiment, ExperimentReport


@pytest.fixture(autouse=True)
def _in_tmp_dir(tmp_path, monkeypatch):
    """Campaign commands write manifests (and default journals) to the cwd."""
    monkeypatch.chdir(tmp_path)


def _passing_runner(quick):
    return ExperimentReport(
        experiment_id="OK", title="passes", paper_claim="none",
        rows=[{"quick": quick}], checks=[Check("shape", True)],
    )


def _exploding_runner(quick):
    raise RuntimeError("experiment blew up")


#: Ad-hoc (unregistered) experiments; module-level runners so they pickle.
AD_HOC = [
    Experiment("OK", "passes", "none", _passing_runner),
    Experiment("BOOM", "explodes", "none", _exploding_runner),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E5"])
        assert args.experiment == "E5"
        assert not args.quick

    def test_elect_defaults(self):
        args = build_parser().parse_args(["elect"])
        assert args.n == 512
        assert args.alpha == 0.5

    def test_run_resilient_flags(self):
        args = build_parser().parse_args(
            ["run", "E5", "--resume", "--trial-timeout", "30", "--retries", "2"]
        )
        assert args.resume
        assert args.trial_timeout == 30.0
        assert args.retries == 2
        plain = build_parser().parse_args(["run", "E5"])
        assert not plain.resume and plain.retries == 0
        assert plain.trial_timeout is None and plain.journal is None

    def test_fuzz_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seeds == 50
        assert args.protocol == "both"
        assert args.budget_seconds is None
        assert args.jobs == 1

    def test_jobs_flags(self):
        assert build_parser().parse_args(["run", "E5"]).jobs == 1
        assert build_parser().parse_args(["run", "E5", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(["fuzz", "--jobs", "0"]).jobs == 0
        assert build_parser().parse_args(["sweep", "--jobs", "2"]).jobs == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.task == "election"
        assert args.n == "64,128"
        assert args.trials == 5
        assert args.jobs == 1
        assert args.out is None

    def test_replay_requires_script(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])

    def test_observability_flags(self):
        sweep = build_parser().parse_args(
            ["sweep", "--progress", "--profile", "--manifest", "m.json"]
        )
        assert sweep.progress and sweep.profile
        assert sweep.manifest == "m.json"
        fuzz = build_parser().parse_args(
            ["fuzz", "--progress", "--journal", "f.jsonl"]
        )
        assert fuzz.progress and fuzz.journal == "f.jsonl"
        assert build_parser().parse_args(["run", "E5", "--progress"]).progress
        report = build_parser().parse_args(["report", "f.jsonl"])
        assert report.campaign == "f.jsonl"
        assert build_parser().parse_args(["report"]).campaign is None


class TestCommands:
    def test_params_command(self, capsys):
        assert main(["params", "--n", "512", "--alpha", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "candidate probability" in out
        assert "referees per candidate" in out

    def test_elect_command(self, capsys):
        code = main(
            ["elect", "--n", "96", "--alpha", "0.5", "--seed", "3",
             "--adversary", "staggered"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "leader election" in out

    def test_agree_command(self, capsys):
        code = main(
            ["agree", "--n", "96", "--alpha", "0.5", "--seed", "3",
             "--inputs", "single0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agreement" in out

    def test_run_command_quick(self, capsys):
        assert main(["run", "E5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "E5" in out
        assert "PASS" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "E99"])

    def test_fuzz_command_clean(self, capsys):
        code = main(["fuzz", "--seeds", "2", "--protocol", "election"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failure(s)" in out

    def test_replay_command_round_trips(self, tmp_path, capsys):
        from repro.chaos import CrashScript, DeliveryFilter

        script = CrashScript(
            faulty=(1,), crashes={1: (2, DeliveryFilter(kind="drop_all"))}
        )
        path = tmp_path / "script.json"
        path.write_text(script.to_json())
        code = main(["replay", str(path), "--protocol", "election", "--n", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "CLEAN" in out

    def test_replay_flags_malformed_script(self, tmp_path, capsys):
        from repro.chaos import CrashScript, DeliveryFilter

        broken = CrashScript(
            faulty=(), crashes={50: (3, DeliveryFilter(kind="drop_all"))}
        )
        path = tmp_path / "broken.json"
        path.write_text(broken.to_json())
        code = main(["replay", str(path), "--protocol", "election", "--n", "64"])
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in out

    def test_run_with_journal_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        assert main(["run", "E5", "--quick", "--journal", journal]) == 0
        capsys.readouterr()
        # Second invocation resumes from the journal without re-running.
        assert main(["run", "E5", "--quick", "--journal", journal, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 attempted, 1 completed, 0 failed" in out
        assert "E5" in out and "PASS" in out

    def test_sweep_command_parallel_matches_serial(self, tmp_path, capsys):
        import json as json_module

        serial_out = str(tmp_path / "serial.json")
        parallel_out = str(tmp_path / "parallel.json")
        base = ["sweep", "--task", "election", "--n", "32", "--alpha", "0.75",
                "--trials", "2", "--seed", "4"]
        assert main(base + ["--jobs", "1", "--out", serial_out]) == 0
        assert main(base + ["--jobs", "2", "--out", parallel_out]) == 0
        out = capsys.readouterr().out
        assert "election sweep" in out
        with open(serial_out) as handle:
            serial = json_module.load(handle)
        with open(parallel_out) as handle:
            parallel = json_module.load(handle)
        assert serial["points"] == parallel["points"]

    def test_fuzz_command_with_jobs(self, capsys):
        code = main(["fuzz", "--seeds", "2", "--protocol", "election",
                     "--n", "24", "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failure(s)" in out


class TestOneCampaignPath:
    """``run``/``sweep`` take the resilient driver at every ``--jobs``."""

    def test_failing_experiment_same_report_at_any_jobs(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.cli.all_experiments", lambda: list(AD_HOC))
        outputs = []
        for jobs in ("1", "2"):
            assert main(["run", "all", "--jobs", jobs]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert (
            "status=failed after 1 attempt(s): RuntimeError: experiment blew up"
            in outputs[0]
        )
        assert "experiments: 2 attempted, 1 completed, 1 failed\n" in outputs[0]
        # Reports print in the order given, each before the summary.
        assert outputs[0].index("OK: passes") < outputs[0].index("BOOM: explodes")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_raising_trial_is_accounted(self, jobs, capsys):
        code = main(
            ["sweep", "--n", "24", "--trials", "2", "--jobs", jobs,
             "--adversary", "random,no-such-adversary"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "trials: 4 attempted, 2 completed, 2 failed\n" in out

    def test_parallel_run_keeps_no_unrequested_journal(self, tmp_path, capsys):
        assert main(["run", "E5", "--quick", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".jsonl")]
        assert (tmp_path / "repro-run.manifest.json").exists()

    def test_resume_defaults_the_journal_and_manifest_sits_beside_it(
        self, tmp_path, capsys
    ):
        argv = ["sweep", "--n", "24", "--trials", "1", "--out", "s.json"]
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "(journal: .repro-sweep.journal.jsonl)" in out
        assert (tmp_path / ".repro-sweep.journal.jsonl.manifest.json").exists()
        assert not (tmp_path / "s.json.manifest.json").exists()


class TestObservability:
    """Provenance manifests, progress, and the report campaign mode."""

    def test_sweep_always_writes_manifest(self, tmp_path, capsys):
        import json as json_module

        out = str(tmp_path / "sweep.json")
        code = main(
            ["sweep", "--task", "election", "--n", "24", "--alpha", "0.75",
             "--trials", "1", "--out", out]
        )
        capsys.readouterr()
        assert code == 0
        manifest_path = tmp_path / "sweep.json.manifest.json"
        assert manifest_path.exists()
        with open(manifest_path) as handle:
            manifest = json_module.load(handle)
        assert manifest["command"] == "sweep"
        assert manifest["config"]["trials"] == 1

    def test_sweep_manifest_path_override(self, tmp_path, capsys):
        manifest = str(tmp_path / "custom.json")
        code = main(
            ["sweep", "--task", "election", "--n", "24", "--trials", "1",
             "--manifest", manifest]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "custom.json").exists()

    def test_fuzz_writes_manifest_and_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "fuzz.jsonl")
        code = main(
            ["fuzz", "--seeds", "2", "--protocol", "election", "--n", "24",
             "--journal", journal]
        )
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "fuzz.jsonl").exists()
        assert (tmp_path / "fuzz.jsonl.manifest.json").exists()

    def test_report_renders_fuzz_campaign(self, tmp_path, capsys):
        journal = str(tmp_path / "fuzz.jsonl")
        assert main(
            ["fuzz", "--seeds", "2", "--protocol", "election", "--n", "24",
             "--journal", journal]
        ) == 0
        capsys.readouterr()
        assert main(["report", journal]) == 0
        out = capsys.readouterr().out
        assert "campaign report — fuzz" in out
        assert "provenance" in out
        assert "journal" in out
        assert "merged metrics" in out
        assert "trials journalled: 2" in out

    def test_report_missing_campaign_fails(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "no campaign artifact" in captured.err

    def test_progress_heartbeat_on_stderr(self, tmp_path, capsys):
        out = str(tmp_path / "sweep.json")
        code = main(
            ["sweep", "--task", "election", "--n", "24", "--trials", "2",
             "--progress", "--out", out]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[sweep]" in captured.err
        assert "elapsed" in captured.err


class TestWireCli:
    def test_wire_elect_defaults(self):
        args = build_parser().parse_args(["wire", "elect"])
        assert args.n == 8
        assert args.alpha == 0.75
        assert args.backend == "wire"
        assert args.suspicion_threshold == 30
        assert args.script is None

    def test_wire_parity_defaults(self):
        args = build_parser().parse_args(["wire", "parity"])
        assert args.sizes == [8, 16, 32]
        assert args.backend == "wire"
        assert sorted(args.modes) == ["fault-free", "scripted"]

    def test_wire_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wire"])

    def test_wire_elect_loopback_command(self, capsys):
        code = main(["wire", "elect", "--n", "8", "--backend", "loopback"])
        out = capsys.readouterr().out
        assert code == 0
        assert "wire election" in out
        assert "loopback" in out

    def test_wire_parity_loopback_command(self, capsys):
        code = main(
            ["wire", "parity", "--protocols", "agreement", "--sizes", "8",
             "--backend", "loopback"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "parity: 2/2 cells match" in out

    def test_wire_flood_with_script_file(self, tmp_path, capsys):
        import json as _json

        from repro.net import WireSpec, default_script

        spec = WireSpec(protocol="flooding", n=8)
        script_path = tmp_path / "script.json"
        script_path.write_text(_json.dumps(default_script(spec).to_dict()))
        code = main(
            ["wire", "flood", "--n", "8", "--script", str(script_path),
             "--backend", "loopback"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wire flooding" in out
