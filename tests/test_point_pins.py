"""Pins on every consumer that describes one run of a family.

The CLI's run parsers, saved fuzz cases, the wire spec's JSON form and
the serve cache's key digests must read the same however the run
description behind them is organised.  The expected values were taken
from the program before those consumers shared one run point.
"""

import argparse
import json
from pathlib import Path

import pytest

from repro.chaos import FuzzCase, classify, replay_case
from repro.cli import build_parser
from repro.net import WireSpec, default_script
from repro.parallel.tasks import fuzz_trial
from repro.serve.cache import cache_key_digest, cache_key_payload

DATA = Path(__file__).parent / "data"


def _subparsers(parser):
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def _snapshot(parser):
    """Option strings, default, type and choices of every argument."""
    return {
        action.dest: {
            "options": list(action.option_strings) or [action.dest],
            "default": action.default,
            "type": getattr(action.type, "__name__", None),
            "choices": list(action.choices) if action.choices else None,
            "nargs": action.nargs,
        }
        for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._SubParsersAction))
    }


def test_run_parsers_keep_their_flags():
    commands = _subparsers(build_parser())
    wire = _subparsers(commands["wire"])
    parsers = {name: commands[name] for name in ("elect", "agree", "fuzz", "replay")}
    parsers.update({f"wire {name}": wire[name] for name in ("elect", "agree", "flood")})
    expected = json.loads((DATA / "cli_point_parsers.json").read_text())
    assert {name: _snapshot(p) for name, p in parsers.items()} == expected


@pytest.mark.parametrize("protocol", ["election", "agreement"])
def test_version_2_case_replays_to_its_classes(protocol):
    data = json.loads((DATA / f"fuzz_case_v2_{protocol}.json").read_text())
    assert data["version"] == 2
    case = FuzzCase.from_dict(data)
    assert case.seed == data["seed"]
    assert classify(replay_case(case)) == classify(data["violations"]) != ()


def test_scripted_flooding_wire_spec_json():
    spec = WireSpec(protocol="flooding", n=8, seed=0)
    spec = spec.with_(script=default_script(spec))
    data = spec.to_dict()
    assert data == {
        "protocol": "flooding", "n": 8, "alpha": 0.75, "seed": 0,
        "inputs": "mixed", "faulty_count": None, "extra_rounds": 0,
        "host": "127.0.0.1", "heartbeat_interval": 0.1,
        "suspicion_threshold": 30, "round_timeout": 30.0,
        "setup_timeout": 20.0, "trial_timeout": 180.0,
        "script": {
            "version": 2, "faulty": [2, 3],
            "crashes": {
                "2": {"round": 1, "filter": {
                    "kind": "keep_fraction", "fraction": 0.5, "salt": 0}},
                "3": {"round": 3, "filter": {"kind": "drop_all"}},
            },
            "label": "parity/flooding/n8/seed0",
        },
    }
    assert WireSpec.from_dict(json.loads(json.dumps(data))) == spec


def test_agreement_wire_spec_json():
    spec = WireSpec(
        protocol="agreement", n=16, seed=3, inputs="all1", extra_rounds=1,
        heartbeat_interval=0.05,
    )
    data = spec.to_dict()
    assert data == {
        "protocol": "agreement", "n": 16, "alpha": 0.75, "seed": 3,
        "inputs": "all1", "faulty_count": None, "extra_rounds": 1,
        "host": "127.0.0.1", "heartbeat_interval": 0.05,
        "suspicion_threshold": 30, "round_timeout": 30.0,
        "setup_timeout": 20.0, "trial_timeout": 180.0,
    }
    assert WireSpec.from_dict(data) == spec


def test_sweep_point_cache_digests():
    agreement = cache_key_payload(
        "repro.parallel.tasks:agreement_trial",
        {"n": 64, "alpha": 0.5, "adversary": "random"}, 5,
    )
    fuzz = cache_key_payload(
        "repro.parallel.tasks:fuzz_trial", {"protocol": "election", "n": 16}, 7
    )
    assert cache_key_digest(agreement) == (
        "c322c0ee4cf4b3c76981c6e6af6419e87f128fcbef3a2a8e91a311bfaeb673d3"
    )
    assert cache_key_digest(fuzz) == (
        "5b21481874ac7e15e81e461c6a24350a609d0e5c60f61431c5898f7aef71b6b1"
    )
    assert fuzz_trial(seed=7, protocol="election", n=16) == {
        "protocol": "election", "n": 16, "alpha": 0.5, "seed": 7, "failed": False,
    }
