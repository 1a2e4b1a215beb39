"""Command-line entry point for the experiment harness.

Subcommands:
  exp-a   periodicity-control schedule run
  exp-b   closed-loop latency decomposition
  sense   sensing-accuracy sweep over seeded scenes
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .control import ControlError, PolicyParseError
from .harness import (
    CONFIG_FIELDS,
    ConfigParseError,
    ExperimentConfig,
    SetupFailure,
    load_config,
    run_experiment_a,
    run_experiment_b,
    run_sensing_accuracy,
)
from .ofh import WaveformParseError
from .radio import SceneParseError, load_scene
from .transport import EndpointKind


def _flag(parse, read=float):
    """A flag's type: ``read`` turns its text into the value ``parse`` takes.

    ``parse`` is the document parser of what the flag sets, so a flag obeys
    the documents' rules; a value either refuses is a usage error that names
    the flag (exit code 2).
    """
    def arg_type(text: str):
        try:
            return parse(read(text))
        except (ConfigParseError, OSError, PolicyParseError, SceneParseError,
                WaveformParseError, TypeError, ValueError) as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return arg_type


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    """Flags that set an ``ExperimentConfig`` field are stored under its name."""
    parser = argparse.ArgumentParser(
        prog="oran-isac",
        description="Desk-scale ISAC control-loop experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=_flag(load_config, Path), default=ExperimentConfig(),
                       help="JSON experiment configuration")
        p.add_argument("--out", dest="out_dir", type=Path, default=Path("results"),
                       help="output directory for CSVs and summary.json")
        p.add_argument("--seed", type=_flag(CONFIG_FIELDS["seed"], int),
                       help="seed of the scene: probe pattern and noise")

    a = sub.add_parser("exp-a", help="periodicity control experiment")
    common(a)
    a.add_argument("--transport", type=EndpointKind, metavar="{inproc,tcp}")
    a.add_argument("--duration-s", dest="segment_duration_s",
                   type=_flag(CONFIG_FIELDS["segment_duration_s"]),
                   help="per-segment duration, in seconds")
    a.add_argument("--schedule", dest="schedule_ms",
                   type=_flag(CONFIG_FIELDS["schedule_ms"], _floats),
                   help="comma-separated reporting periods in ms")

    b = sub.add_parser("exp-b", help="closed-loop latency experiment")
    common(b)
    b.add_argument("--transport", type=EndpointKind, metavar="{inproc,tcp}")
    b.add_argument("--probes", dest="num_probes", type=_flag(CONFIG_FIELDS["num_probes"], int))
    b.add_argument("--period-ms", dest="probe_period_ms",
                   type=_flag(CONFIG_FIELDS["probe_period_ms"]))

    s = sub.add_parser("sense", help="sensing accuracy experiment")
    common(s)
    s.add_argument("--scene", type=_flag(load_scene, Path), help="scene JSON with ground truth")
    s.add_argument("--trials", dest="accuracy_trials",
                   type=_flag(CONFIG_FIELDS["accuracy_trials"], int))
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults live in ``ExperimentConfig``: a flag overrides only when given.

    ``--seed`` sets the seed of the scene, whichever document it came from.
    """
    names = {f.name for f in fields(ExperimentConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    cfg = replace(args.config, **given)
    if args.seed is not None:
        cfg.scene = replace(cfg.scene, seed=args.seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: exit code 0, 1 for a run the stack refuses, 2 for bad arguments.

    A refused run prints one line on stderr, ``oran-isac <command>: <reason>``.
    """
    args = _build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    run = {"exp-a": run_experiment_a, "exp-b": run_experiment_b}.get(
        args.command, run_sensing_accuracy)
    try:
        result = run(cfg)
    except (SetupFailure, ControlError) as e:
        print(f"oran-isac {args.command}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result.to_dict(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
