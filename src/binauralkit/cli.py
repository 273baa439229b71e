"""Command-line surface: render, dataset, eval, compare-decoders, hrir-synth.

Angles are taken in degrees here and converted to radians internally.
Every subcommand is deterministic given its flags and input files; all
failures exit nonzero with a single "error: ..." line on stderr.
Each subcommand imports the modules it runs, so a process loads only
those: importing this module loads no other binauralkit module and no numpy,
and `eval` loads no render code (neither `hrir` nor `spherical`). A process
started as `binauralkit` or `python -m binauralkit.cli` runs `_run`, which
exits without the interpreter's final garbage-collection pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

TYPE_CHECKING = False  # read as true by type checkers; `typing` is not imported to learn it
if TYPE_CHECKING:
    from .ambisonic import MonoSignal
    from .binaural import BinauralSignal
    from .spherical import Direction

DECODERS = ("wy", "hrir", "ambisonic-hrir")


def _read_mono(path) -> MonoSignal:
    from . import wavio
    from .ambisonic import MonoSignal

    sample_rate, data = wavio.read_wav(path, channels=1)
    return MonoSignal(data, sample_rate)


def _resolve_direction(args) -> Direction:
    if args.pixel is not None:
        if args.azimuth_deg is not None or args.elevation_deg is not None:
            raise ValueError("give either --pixel or angle flags, not both")
        from .visualmap import DEFAULT_FOV, pixel_to_direction

        return pixel_to_direction(args.pixel[0], args.pixel[1], DEFAULT_FOV)
    if args.azimuth_deg is None:
        raise ValueError("a direction is required: --pixel U V or --azimuth-deg A")
    from .spherical import Direction

    return Direction.from_degrees(args.azimuth_deg, args.elevation_deg or 0.0)


def _render_with(decoder: str, source: MonoSignal, direction: Direction, pack) -> BinauralSignal:
    from .ambisonic import encode
    from .binaural import (
        decode_wy,
        default_speaker_array,
        render_ambisonic_hrir,
        render_direct_hrir,
    )

    if decoder == "wy":
        return decode_wy(encode(source, direction))
    if decoder == "hrir":
        return render_direct_hrir(source, direction, pack)
    if decoder == "ambisonic-hrir":
        return render_ambisonic_hrir(
            encode(source, direction), default_speaker_array(), pack
        )
    raise ValueError(f"unknown decoder {decoder!r}")


def cmd_render(args) -> int:
    from .binaural import write_binaural_wav
    from .hrir import load_or_default_pack

    source = _read_mono(args.in_wav)
    direction = _resolve_direction(args)
    pack = None
    if args.decoder in ("hrir", "ambisonic-hrir"):
        pack = load_or_default_pack(args.hrir_pack, source.sample_rate)
    print(
        f"direction: azimuth {math.degrees(direction.azimuth):+.3f} deg, "
        f"elevation {math.degrees(direction.elevation):+.3f} deg"
    )
    rendered = _render_with(args.decoder, source, direction, pack)
    write_binaural_wav(args.out_wav, rendered, fmt=args.fmt)
    print(f"wrote {args.out_wav}")
    return 0


def cmd_dataset(args) -> int:
    from .scenegen import gen_dataset, load_dataset_config

    config, store, pack, arr = load_dataset_config(args.config)
    manifest = gen_dataset(config, store, pack, arr)
    ks = [len(m["source_wavs"]) for m in manifest]
    print(f"wrote {len(manifest)} scenes to {Path(config.output_dir)}")
    print(f"sources per scene: K=1: {ks.count(1)}, K=2: {ks.count(2)}, K=3: {ks.count(3)}")
    return 0


def cmd_eval(args) -> int:
    from .binaural import read_binaural_wav
    from .metrics import evaluate

    gt = read_binaural_wav(args.gt_wav)
    pred = read_binaural_wav(args.pred_wav)
    # a flag left out is absent from args, so evaluate's own default applies
    windows = {k: v for k, v in vars(args).items() if k in ("window_s", "hop_s")}
    try:
        report = evaluate(gt, pred, **windows)
    except ValueError as exc:  # what evaluate rejects is this pair or its windows
        raise ValueError(f"{args.gt_wav} vs {args.pred_wav}: {exc}") from exc
    if args.report is not None:
        Path(args.report).write_text(report.to_json())
    print(
        f"stft {report.stft_dist:.6f}  env {report.env:.6f}  mag {report.mag:.6f}  "
        f"snr_db {report.snr_db:.3f}  d_phase {report.d_phase:.6f}  "
        f"({report.windows} windows)"
    )
    return 0


def cmd_compare_decoders(args) -> int:
    from .binaural import write_binaural_wav
    from .hrir import load_or_default_pack
    from .metrics import SilentGroundTruthError, evaluate

    source = _read_mono(args.in_wav)
    direction = _resolve_direction(args)
    pack = load_or_default_pack(args.hrir_pack, source.sample_rate)
    rendered = {decoder: _render_with(decoder, source, direction, pack) for decoder in DECODERS}
    distances = {}
    for i, a in enumerate(DECODERS):
        for b in DECODERS[i + 1 :]:
            try:
                distances[f"{a}_vs_{b}"] = evaluate(rendered[a], rendered[b]).to_dict()
            except SilentGroundTruthError:  # silent in every window: distances are undefined
                distances[f"{a}_vs_{b}"] = None
    out_dir = Path(args.out_dir)  # created only once every score is in
    out_dir.mkdir(parents=True, exist_ok=True)
    for decoder, sig in rendered.items():
        write_binaural_wav(out_dir / f"{decoder}.wav", sig)
    (out_dir / "decoder_distances.json").write_text(
        json.dumps(distances, indent=2, sort_keys=True)
    )
    print(f"wrote {', '.join(d + '.wav' for d in DECODERS)} and decoder_distances.json")
    return 0


def cmd_hrir_synth(args) -> int:
    from .hrir import load_pack, save_pack, synth_pack

    pack = synth_pack(
        n_azimuths=args.n_azimuths,
        head_radius=args.head_radius,
        ild_db=args.ild_db,
        sample_rate=args.sample_rate,
    )
    save_pack(pack, args.out_dir)
    reloaded = load_pack(args.out_dir)
    if len(reloaded.entries) != len(pack.entries):
        raise RuntimeError("pack round trip lost entries")
    print(f"wrote {len(pack.entries)}-direction pack to {args.out_dir}")
    return 0


def _add_direction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--azimuth-deg", type=float, default=None, help="source azimuth, degrees")
    p.add_argument("--elevation-deg", type=float, default=None, help="source elevation, degrees")
    p.add_argument(
        "--pixel", type=float, nargs=2, metavar=("U", "V"), default=None,
        help="normalized image position, u and v in [-1, 1]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binauralkit",
        description="Mono-to-binaural rendering, pseudo-stereo datasets, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a mono WAV to binaural")
    p.add_argument("--in", dest="in_wav", required=True, help="input mono WAV")
    p.add_argument("--out", dest="out_wav", required=True, help="output stereo WAV")
    p.add_argument("--decoder", choices=DECODERS, default="ambisonic-hrir")
    p.add_argument("--hrir-pack", default=None, help="HRIR pack directory")
    p.add_argument("--fmt", choices=("float32", "pcm16"), default="float32")
    _add_direction_flags(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("dataset", help="generate a pseudo visual-stereo dataset")
    p.add_argument("--config", required=True, help="dataset config JSON")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("eval", help="compute the five metrics between two stereo WAVs")
    p.add_argument("--gt", dest="gt_wav", required=True, help="ground-truth stereo WAV")
    p.add_argument("--pred", dest="pred_wav", required=True, help="predicted stereo WAV")
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.add_argument("--window-s", type=float, default=argparse.SUPPRESS)
    p.add_argument("--hop-s", type=float, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare-decoders", help="render with all three decoders and compare"
    )
    p.add_argument("--in", dest="in_wav", required=True, help="input mono WAV")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--hrir-pack", default=None, help="HRIR pack directory")
    _add_direction_flags(p)
    p.set_defaults(func=cmd_compare_decoders)

    p = sub.add_parser("hrir-synth", help="generate and save a synthetic HRIR pack")
    p.add_argument("--out-dir", required=True, help="pack directory to write")
    p.add_argument("--n-azimuths", type=int, default=24)
    p.add_argument("--head-radius", type=float, default=0.0875, help="meters")
    p.add_argument("--ild-db", type=float, default=6.0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.set_defaults(func=cmd_hrir_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Exception as exc:  # single machine-parsable line on stderr
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run() -> None:
    """The process entry of `python -m binauralkit.cli` and of the `binauralkit`
    script: `main`, then exit with its code. Freezing the collector first moves
    every object numpy and the package made out of its reach, so shutdown skips
    that final pass; memory goes back with the process, while stream flushes and
    `atexit` handlers still run. `main` itself leaves the collector as it was."""
    import gc

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _run()
