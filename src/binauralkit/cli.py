"""Command-line surface: render, dataset, eval, compare-decoders, hrir-synth.

Angles are taken in degrees here and converted to radians internally.
Every subcommand is deterministic given its flags and input files; all
failures exit nonzero with a single "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import wavio
from .ambisonic import MonoSignal, encode
from .binaural import (
    BinauralSignal,
    decode_wy,
    default_speaker_array,
    make_speaker_array,
    read_binaural_wav,
    render_ambisonic_hrir,
    render_direct_hrir,
    write_binaural_wav,
)
from .hrir import load_pack, save_pack, synth_pack
from .metrics import DEFAULT_HOP_S, DEFAULT_WINDOW_S, evaluate
from .scenegen import DatasetConfig, WavStore, gen_dataset
from .spherical import Direction
from .visualmap import DEFAULT_FOV, FovConfig, pixel_to_direction

DECODERS = ("wy", "hrir", "ambisonic-hrir")
DATASET_KEYS = frozenset({
    "master_seed", "count", "pool", "output_dir", "ratios", "pack", "array",
    "sample_rate", "duration_s", "gain_range", "fov",
})


def _read_mono(path) -> MonoSignal:
    sample_rate, data = wavio.read_wav(path)
    if data.ndim != 1:
        raise ValueError(f"{path} is not a mono WAV")
    return MonoSignal(data, sample_rate)


def _resolve_direction(args) -> Direction:
    if args.pixel is not None:
        if args.azimuth_deg is not None or args.zenith_deg is not None:
            raise ValueError("give either --pixel or angle flags, not both")
        return pixel_to_direction(args.pixel[0], args.pixel[1], DEFAULT_FOV)
    if args.azimuth_deg is None:
        raise ValueError("a direction is required: --pixel U V or --azimuth-deg A")
    if args.zenith_deg is not None:
        if args.elevation_deg is not None:
            raise ValueError("give either --elevation-deg or --zenith-deg, not both")
        return Direction.from_zenith(
            math.radians(args.azimuth_deg), math.radians(args.zenith_deg)
        )
    return Direction.from_degrees(args.azimuth_deg, args.elevation_deg or 0.0)


def _parse_fov(raw, config_path) -> FovConfig:
    keys = set(DEFAULT_FOV.to_dict())
    if not isinstance(raw, dict) or set(raw) != keys:
        raise ValueError(
            f"fov in {config_path} must have exactly the keys {', '.join(sorted(keys))}"
        )
    return FovConfig.from_dict({k: float(v) for k, v in raw.items()})


def _load_or_default_pack(path, sample_rate: int):
    if path is not None:
        return load_pack(path)
    return synth_pack(sample_rate=sample_rate)


def _render_with(decoder: str, source: MonoSignal, direction: Direction, pack) -> BinauralSignal:
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
    source = _read_mono(args.in_wav)
    direction = _resolve_direction(args)
    pack = None
    if args.decoder in ("hrir", "ambisonic-hrir"):
        pack = _load_or_default_pack(args.hrir_pack, source.sample_rate)
    print(
        f"direction: azimuth {math.degrees(direction.azimuth):+.3f} deg, "
        f"elevation {math.degrees(direction.elevation):+.3f} deg"
    )
    rendered = _render_with(args.decoder, source, direction, pack)
    write_binaural_wav(args.out_wav, rendered, fmt=args.fmt)
    print(f"wrote {args.out_wav}")
    return 0


def cmd_dataset(args) -> int:
    config_path = Path(args.config)
    raw = json.loads(config_path.read_text())
    unknown = sorted(set(raw) - DATASET_KEYS)
    if unknown:
        raise ValueError(f"unknown keys in {config_path}: {', '.join(unknown)}")
    root = config_path.parent
    pool = [str(p) for p in raw["pool"]]
    store = WavStore(root)
    for ref in pool:
        p = Path(ref)
        if not (p if p.is_absolute() else root / p).is_file():
            raise FileNotFoundError(f"pool clip not found: {ref}")
    pack_path = raw.get("pack")
    if pack_path is not None:
        p = Path(pack_path)
        pack = load_pack(p if p.is_absolute() else root / p)
    else:
        pack = synth_pack(sample_rate=int(raw.get("sample_rate", 16000)))
    if raw.get("array") is not None:
        arr = make_speaker_array(
            [Direction.from_degrees(az, el) for az, el in raw["array"]]
        )
    else:
        arr = default_speaker_array()
    out_dir = Path(raw["output_dir"])
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    config = DatasetConfig(
        master_seed=int(raw["master_seed"]),
        count=int(raw["count"]),
        pool=tuple(pool),
        output_dir=str(out_dir),
        ratios=tuple(raw.get("ratios", (0.4, 0.5, 0.1))),
        sample_rate=int(raw.get("sample_rate", 16000)),
        duration_s=float(raw.get("duration_s", 0.63)),
        gain_range=tuple(raw.get("gain_range", (0.5, 1.0))),
        fov=_parse_fov(raw["fov"], config_path) if raw.get("fov") is not None else DEFAULT_FOV,
    )
    try:
        manifest = gen_dataset(config, store, pack, arr)
    except RuntimeError as exc:
        (out_dir / "FAILED").write_text(f"{exc}\n")
        raise
    counts = {1: 0, 2: 0, 3: 0}
    for item in manifest:
        meta = json.loads((out_dir / item["scene_json"]).read_text())
        counts[len(meta["sources"])] += 1
    print(f"wrote {len(manifest)} scenes to {out_dir}")
    print(f"sources per scene: K=1: {counts[1]}, K=2: {counts[2]}, K=3: {counts[3]}")
    return 0


def cmd_eval(args) -> int:
    gt = read_binaural_wav(args.gt_wav)
    pred = read_binaural_wav(args.pred_wav)
    report = evaluate(gt, pred, window_s=args.window_s, hop_s=args.hop_s)
    payload = report.to_dict(window_s=args.window_s, hop_s=args.hop_s)
    if args.report is not None:
        Path(args.report).write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(
        f"stft {report.stft_dist:.6f}  env {report.env:.6f}  mag {report.mag:.6f}  "
        f"snr_db {report.snr_db:.3f}  d_phase {report.d_phase:.6f}  "
        f"({report.windows} windows)"
    )
    return 0


def cmd_compare_decoders(args) -> int:
    source = _read_mono(args.in_wav)
    direction = _resolve_direction(args)
    pack = _load_or_default_pack(args.hrir_pack, source.sample_rate)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rendered = {}
    for decoder in DECODERS:
        sig = _render_with(decoder, source, direction, pack)
        rendered[decoder] = sig
        write_binaural_wav(out_dir / f"{decoder}.wav", sig)
    distances = {}
    for i, a in enumerate(DECODERS):
        for b in DECODERS[i + 1 :]:
            try:
                report = evaluate(rendered[a], rendered[b])
                entry = report.to_dict()
            except ValueError:
                entry = None  # silent reference signal; distances undefined
            distances[f"{a}_vs_{b}"] = entry
    (out_dir / "decoder_distances.json").write_text(
        json.dumps(distances, indent=2, sort_keys=True)
    )
    print(f"wrote {', '.join(d + '.wav' for d in DECODERS)} and decoder_distances.json")
    return 0


def cmd_hrir_synth(args) -> int:
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
        "--zenith-deg", type=float, default=None,
        help="zenith angle, degrees (alternative to --elevation-deg)",
    )
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
    p.add_argument("--window-s", type=float, default=DEFAULT_WINDOW_S)
    p.add_argument("--hop-s", type=float, default=DEFAULT_HOP_S)
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


if __name__ == "__main__":
    sys.exit(main())
