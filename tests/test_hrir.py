import json
import math

import numpy as np
import pytest

from binauralkit import wavio
from binauralkit.cli import main
from binauralkit.hrir import (
    MAX_FIR_TAPS,
    HrirEntry,
    HrirPack,
    great_circle,
    load_or_default_pack,
    load_pack,
    nearest,
    save_pack,
    synth_pack,
)
from binauralkit.spherical import Direction


def entry_at(az_deg, el_deg, tap=1.0):
    taps = np.array([tap, 0.0])
    return HrirEntry(Direction.from_degrees(az_deg, el_deg), taps, taps.copy())


class TestPackValidation:
    def test_needs_entries(self):
        with pytest.raises(ValueError):
            HrirPack((), 16000)

    @pytest.mark.parametrize("sample_rate", [0, -16000])
    def test_rejects_non_positive_rate(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            HrirPack((entry_at(0, 0),), sample_rate)

    @pytest.mark.parametrize("sample_rate", [True, 16000.5, float("inf")])
    def test_rejects_a_rate_that_is_not_a_whole_number(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be positive and whole"):
            HrirPack((entry_at(0, 0),), sample_rate)

    def test_entry_takes_no_rate(self):
        # the pack's sample_rate is the one rate of its entries
        with pytest.raises(TypeError):
            HrirEntry(Direction(0, 0), np.ones(1), np.ones(1), 16000)

    def test_rejects_duplicate_directions(self):
        with pytest.raises(ValueError):
            HrirPack((entry_at(0, 0), entry_at(0, 0)), 16000)

    def test_entry_copies_the_callers_filters(self):
        taps = np.array([1.0, 0.5])
        entry = HrirEntry(Direction(0, 0), taps, taps)
        taps[0] = 2.0  # the caller's array stays writeable
        assert entry.left_fir[0] == entry.right_fir[0] == 1.0
        assert not entry.left_fir.flags.writeable

    def test_rejects_empty_filter(self):
        with pytest.raises(ValueError):
            HrirEntry(Direction(0, 0), np.array([]), np.array([1.0]))


class TestGreatCircle:
    def test_zero_on_self(self):
        d = Direction(0.7, -0.3)
        assert great_circle(d, d) == pytest.approx(0.0, abs=1e-7)

    def test_symmetric(self):
        a, b = Direction(0.2, 0.5), Direction(-1.0, -0.1)
        assert great_circle(a, b) == pytest.approx(great_circle(b, a))

    def test_right_angle(self):
        assert great_circle(Direction(0, 0), Direction(math.pi / 2, 0)) == pytest.approx(
            math.pi / 2
        )


class TestNearest:
    def test_exact_hit_idempotent(self):
        pack = HrirPack(tuple(entry_at(a, 0) for a in (0, 45, 90, 135)), 16000)
        for e in pack.entries:
            assert nearest(pack, e.direction) is e

    def test_metric_comparison(self):
        pack = HrirPack((entry_at(0, 0), entry_at(90, 0)), 16000)
        hit = nearest(pack, Direction.from_degrees(40, 0))
        assert hit.direction.azimuth == pytest.approx(0.0)

    def test_tie_breaks_to_smaller_azimuth(self):
        pack = HrirPack((entry_at(90, 0), entry_at(0, 0)), 16000)
        hit = nearest(pack, Direction.from_degrees(45, 0))
        assert hit.direction.azimuth == pytest.approx(0.0)

    def test_matches_linear_scan_oracle(self):
        pack = synth_pack(n_azimuths=36)
        rng = np.random.default_rng(21)
        for _ in range(100):
            q = Direction(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2))
            best = None
            for e in pack.entries:
                d = great_circle(e.direction, q)
                if best is None or d < best[0]:
                    best = (d, e)
            assert nearest(pack, q) is best[1]

    def test_grid_pack_lookup(self):
        # 72 azimuths x 3 elevations, built programmatically
        entries = tuple(
            entry_at(az, el)
            for el in (-30, 0, 30)
            for az in np.arange(0, 360, 5)
        )
        pack = HrirPack(entries, 16000)
        assert len(pack.entries) == 216
        hit = nearest(pack, Direction.from_degrees(52, 17))
        assert math.degrees(hit.direction.azimuth) == pytest.approx(50)
        assert math.degrees(hit.direction.elevation) == pytest.approx(30)


class TestSynthPack:
    def test_front_is_symmetric(self):
        pack = synth_pack(n_azimuths=8)
        front = nearest(pack, Direction(0.0, 0.0))
        np.testing.assert_array_equal(front.left_fir, front.right_fir)

    def test_hard_left_delay_and_gain(self):
        pack = synth_pack(n_azimuths=8, ild_db=6.0)
        e = nearest(pack, Direction(math.pi / 2, 0.0))
        left_onset = np.argmax(np.abs(e.left_fir) > 0)
        right_onset = np.argmax(np.abs(e.right_fir) > 0)
        assert left_onset < right_onset
        assert e.left_fir.max() > e.right_fir.max()

    def test_ild_readback(self):
        # filter-tap sums carry the level split exactly (unit-DC low-pass)
        pack = synth_pack(n_azimuths=8, ild_db=6.0)
        e = nearest(pack, Direction(math.pi / 2, 0.0))
        ratio_db = 20 * np.log10(e.left_fir.sum() / e.right_fir.sum())
        assert ratio_db == pytest.approx(6.0, abs=1e-9)

    def test_deterministic(self):
        a = synth_pack(n_azimuths=12, ild_db=4.5)
        b = synth_pack(n_azimuths=12, ild_db=4.5)
        for ea, eb in zip(a.entries, b.entries):
            np.testing.assert_array_equal(ea.left_fir, eb.left_fir)
            np.testing.assert_array_equal(ea.right_fir, eb.right_fir)

    def test_woodworth_itd_scale(self):
        # broadside arrival-time gap ~ (a/c)(1 + pi/2), split across both ears
        sr = 16000
        pack = synth_pack(n_azimuths=4, head_radius=0.0875, sample_rate=sr)
        e = nearest(pack, Direction(math.pi / 2, 0.0))
        gap = np.argmax(e.right_fir > 0) - np.argmax(e.left_fir > 0)
        expected = 0.0875 / 343.0 * (1 + math.pi / 2) * sr
        assert gap == pytest.approx(expected, abs=1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_pack(n_azimuths=1)
        with pytest.raises(ValueError):
            synth_pack(head_radius=0.0)
        with pytest.raises(ValueError):
            synth_pack(ild_db=-1.0)

    def test_no_lowpass_keeps_single_tap(self):
        pack = synth_pack(n_azimuths=8, sample_rate=8000)
        e = nearest(pack, Direction(math.pi / 2, 0.0))
        assert np.count_nonzero(e.right_fir) == 1

    @pytest.mark.parametrize("sample_rate, lowpass", [(12000, False), (12001, True)])
    def test_far_ear_lowpass_needs_its_corner_below_nyquist(self, sample_rate, lowpass):
        # the 6 kHz corner (CONTRA_LOWPASS_HZ) leaves a tail of taps above 12 kHz only
        e = nearest(synth_pack(n_azimuths=8, sample_rate=sample_rate), Direction(math.pi / 2, 0.0))
        assert np.count_nonzero(e.left_fir) == 1
        assert (np.count_nonzero(e.right_fir) > 1) == lowpass

    @pytest.mark.parametrize("sample_rate", [True, 16000.5, 0])
    def test_rate_must_be_a_positive_whole_number(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be positive and whole"):
            synth_pack(sample_rate=sample_rate)

    @pytest.mark.parametrize("sample_rate", [2**32, 10**21, 10**400], ids=["2**32", "1e21", "1e400"])
    def test_rate_past_the_wav_header_field_is_named(self, sample_rate):
        with pytest.raises(ValueError) as info:
            synth_pack(sample_rate=sample_rate)
        assert str(info.value) == ("sample_rate must be at most 4294967295 Hz, the largest a "
                                   f"WAV header holds, got {sample_rate}")

    def test_largest_wav_rate_passes_its_own_check(self):
        # its far-ear low-pass tail then outgrows the filter-length maximum
        with pytest.raises(ValueError, match="at sample_rate 4294967295 Hz needs filters"):
            synth_pack(sample_rate=2**32 - 1)

    def test_tail_past_the_tap_maximum_names_sample_rate(self):
        # the far-ear tail alone is too long at 6 MHz, whatever the radius
        with pytest.raises(ValueError) as info:
            synth_pack(sample_rate=6_000_000, head_radius=1e-6)
        assert str(info.value) == ("the 4398-tap far-ear low-pass tail at sample_rate 6000000 Hz "
                                   "needs filters longer than the 4096-tap maximum at any head_radius")
        # the bound is exact: with the one-sample base delay of the smallest
        # radius, 4092 tail taps fit and 4093 do not
        pack = synth_pack(n_azimuths=2, head_radius=5e-324, sample_rate=5_583_000)
        assert len(pack.entries[0].left_fir) == MAX_FIR_TAPS
        with pytest.raises(ValueError, match="the 4093-tap far-ear low-pass tail at sample_rate"):
            synth_pack(n_azimuths=2, head_radius=5e-324, sample_rate=5_584_000)

    def test_radius_past_the_tap_maximum_names_head_radius(self):
        with pytest.raises(ValueError) as info:
            synth_pack(sample_rate=48000, head_radius=20.0)
        assert str(info.value) == ("head_radius 20.0 m at sample_rate 48000 Hz needs filters "
                                   "longer than the 4096-tap maximum")

    @pytest.mark.parametrize("n_azimuths", [24.5, 2.000001])
    def test_azimuth_count_must_be_whole(self, n_azimuths):
        with pytest.raises(ValueError) as info:
            synth_pack(n_azimuths=n_azimuths)
        assert str(info.value) == f"n_azimuths must be whole, got {n_azimuths}"

    def test_whole_float_azimuth_count_gives_the_int_pack(self):
        a, b = synth_pack(n_azimuths=8.0), synth_pack(n_azimuths=8)
        assert len(a.entries) == len(b.entries) == 8
        for ea, eb in zip(a.entries, b.entries):
            assert ea.direction.azimuth == eb.direction.azimuth
            np.testing.assert_array_equal(ea.left_fir, eb.left_fir)
            np.testing.assert_array_equal(ea.right_fir, eb.right_fir)

    def test_lowpass_corner_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            synth_pack(contra_lowpass_hz=3000.0)


class TestPackIO:
    def test_round_trip_at_storage_precision(self, tmp_path):
        pack = synth_pack(n_azimuths=6)
        save_pack(pack, tmp_path / "pack")
        back = load_pack(tmp_path / "pack")
        assert back.name == pack.name
        assert back.sample_rate == pack.sample_rate
        assert len(back.entries) == len(pack.entries)
        for ea, eb in zip(pack.entries, back.entries):
            assert ea.direction.azimuth == pytest.approx(eb.direction.azimuth, abs=1e-12)
            np.testing.assert_array_equal(ea.left_fir.astype(np.float32), eb.left_fir.astype(np.float32))

    def test_index_text_is_pinned(self, tmp_path):
        # the writer's bytes: `_Index` and its `_IndexEntry`s, keys sorted, two-space indent
        save_pack(synth_pack(n_azimuths=2, sample_rate=8000), tmp_path)
        assert (tmp_path / "index.json").read_text() == """{
  "entries": [
    {
      "azimuth_deg": 0.0,
      "elevation_deg": 0.0,
      "left": "d000_L.wav",
      "right": "d000_R.wav"
    },
    {
      "azimuth_deg": 180.0,
      "elevation_deg": 0.0,
      "left": "d001_L.wav",
      "right": "d001_R.wav"
    }
  ],
  "name": "synthetic",
  "sample_rate": 8000
}"""

    def test_single_entry_pack(self, tmp_path):
        pack = HrirPack((entry_at(0, 0),), 16000, name="one")
        save_pack(pack, tmp_path / "one")
        back = load_pack(tmp_path / "one")
        assert len(back.entries) == 1
        assert back.entries[0].direction == Direction(0.0, 0.0)

    def test_missing_index(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pack(tmp_path)

    def test_malformed_json(self, tmp_path):
        (tmp_path / "index.json").write_text("{not json")
        with pytest.raises(ValueError):
            load_pack(tmp_path)

    def test_missing_keys(self, tmp_path):
        (tmp_path / "index.json").write_text(json.dumps({"name": "x"}))
        with pytest.raises(ValueError):
            load_pack(tmp_path)

    @pytest.mark.parametrize("key", ["name", "sample_rate", "entries"])
    def test_missing_top_level_key_is_named(self, tmp_path, key):
        index = {"name": "x", "sample_rate": 16000, "entries": []}
        del index[key]
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError, match=f"index.json is missing required key '{key}'"):
            load_pack(tmp_path)

    @pytest.mark.parametrize("key", ["left", "right", "azimuth_deg", "elevation_deg"])
    def test_missing_entry_key_is_named(self, tmp_path, key):
        wavio.write_wav(tmp_path / "l.wav", 16000, np.array([1.0]))
        wavio.write_wav(tmp_path / "r.wav", 16000, np.array([1.0]))
        good = {"azimuth_deg": 0, "elevation_deg": 0, "left": "l.wav", "right": "r.wav"}
        bad = dict(good, azimuth_deg=90)
        del bad[key]
        index = {"name": "gap", "sample_rate": 16000, "entries": [good, bad]}
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError) as info:
            load_pack(tmp_path)
        assert str(info.value) == (
            f"{tmp_path / 'index.json'} entry 1 is missing required key '{key}'"
        )

    def test_entries_not_a_list_is_named(self, tmp_path):
        index = {"name": "x", "sample_rate": 16000, "entries": 5}
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError) as info:
            load_pack(tmp_path)
        assert str(info.value) == f"entries in {tmp_path / 'index.json'}: expected list, got 5"

    def test_stereo_fir_names_the_file(self, tmp_path):
        wavio.write_wav(tmp_path / "l.wav", 16000, np.ones((3, 2)))
        wavio.write_wav(tmp_path / "r.wav", 16000, np.array([1.0]))
        e = {"azimuth_deg": 0, "elevation_deg": 0, "left": "l.wav", "right": "r.wav"}
        (tmp_path / "index.json").write_text(
            json.dumps({"name": "st", "sample_rate": 16000, "entries": [e]})
        )
        with pytest.raises(ValueError, match=f"{tmp_path / 'l.wav'} is not a mono WAV"):
            load_pack(tmp_path)

    def test_wav_rate_mismatch(self, tmp_path):
        wavio.write_wav(tmp_path / "l.wav", 44100, np.array([1.0]))
        wavio.write_wav(tmp_path / "r.wav", 44100, np.array([1.0]))
        index = {
            "name": "bad",
            "sample_rate": 16000,
            "entries": [
                {"azimuth_deg": 0, "elevation_deg": 0, "left": "l.wav", "right": "r.wav"}
            ],
        }
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError) as info:
            load_pack(tmp_path)
        assert str(info.value) == (f"{tmp_path / 'index.json'} entry 0: l.wav has sample rate "
                                   "44100, pack declares 16000")

    @pytest.mark.parametrize("ear", ["left", "right"])
    def test_empty_fir_names_its_entry(self, tmp_path, capsys, ear):
        save_pack(synth_pack(n_azimuths=4), tmp_path / "pack")
        wavio.write_wav(tmp_path / "pack" / f"d001_{ear[0].upper()}.wav", 16000, np.zeros(0))
        index = tmp_path / "pack" / "index.json"
        message = f"{index} entry 1: {ear}_fir must be a non-empty 1-D filter"
        with pytest.raises(ValueError) as info:
            load_pack(tmp_path / "pack")
        assert str(info.value) == message
        wavio.write_wav(tmp_path / "in.wav", 16000, np.ones(100))
        code = main(["render", "--in", str(tmp_path / "in.wav"), "--out", str(tmp_path / "out.wav"),
                     "--hrir-pack", str(tmp_path / "pack"), "--azimuth-deg", "30"])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize("entry, change, message", [
        (1, {"azimuth_deg": "ninety"}, "azimuth_deg in {index} entry 1: expected float, got 'ninety'"),
        (1, {"azimuth_deg": None}, "azimuth_deg in {index} entry 1: expected float, got None"),
        (1, {"elevation_deg": 100}, "{index} entry 1: elevation 1.745"),
        (1, {"left": 5}, "left in {index} entry 1: expected str, got 5"),
        (1, {"azimuth_deg": 0}, "{index}: duplicate direction in pack"),
        (None, {"name": 3}, "name in {index}: expected str, got 3"),
        (None, {"sample_rate": 16000.7}, "sample_rate in {index}: expected int, got 16000.7"),
        (None, {"sample_rate": "16000"}, "sample_rate in {index}: expected int, got '16000'"),
        (None, {"sample_rate": True}, "sample_rate in {index}: expected int, got True"),
        # checked before the WAVs at 16 kHz are compared with it
        (None, {"sample_rate": 0}, "sample_rate in {index}: sample_rate must be positive and "
         "whole, got 0"),
        (None, {"sample_rate": -16000}, "sample_rate in {index}: sample_rate must be positive "
         "and whole, got -16000"),
    ])
    def test_malformed_index_value_is_named(self, tmp_path, entry, change, message):
        wavio.write_wav(tmp_path / "l.wav", 16000, np.array([1.0]))
        wavio.write_wav(tmp_path / "r.wav", 16000, np.array([1.0]))
        e = {"azimuth_deg": 0, "elevation_deg": 0, "left": "l.wav", "right": "r.wav"}
        index = {"name": "bad", "sample_rate": 16000, "entries": [e, dict(e, azimuth_deg=90)]}
        (index if entry is None else index["entries"][entry]).update(change)
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError) as info:
            load_pack(tmp_path)
        assert str(info.value).startswith(message.format(index=tmp_path / "index.json"))

    def test_duplicate_directions_rejected_on_load(self, tmp_path):
        wavio.write_wav(tmp_path / "l.wav", 16000, np.array([1.0]))
        wavio.write_wav(tmp_path / "r.wav", 16000, np.array([1.0]))
        e = {"azimuth_deg": 0, "elevation_deg": 0, "left": "l.wav", "right": "r.wav"}
        index = {"name": "dup", "sample_rate": 16000, "entries": [e, dict(e)]}
        (tmp_path / "index.json").write_text(json.dumps(index))
        with pytest.raises(ValueError, match="duplicate"):
            load_pack(tmp_path)


class TestDefaultPack:
    @pytest.mark.parametrize("sample_rate", [8000, 11025, 12000])
    def test_synthetic_fallback_at_12_khz_and_below(self, sample_rate):
        pack = load_or_default_pack(None, sample_rate)
        assert pack.sample_rate == sample_rate
        for e in pack.entries:  # no far-ear low-pass tail
            assert np.count_nonzero(e.left_fir) == np.count_nonzero(e.right_fir) == 1

    def test_fallback_is_the_default_synthetic_pack(self):
        pack, ref = load_or_default_pack(None, 12001), synth_pack(sample_rate=12001)
        assert [e.direction for e in pack.entries] == [e.direction for e in ref.entries]
        for a, b in zip(pack.entries, ref.entries):
            np.testing.assert_array_equal(a.left_fir, b.left_fir)
            np.testing.assert_array_equal(a.right_fir, b.right_fir)

    def test_saved_pack_at_another_rate_is_rejected(self, tmp_path):
        save_pack(synth_pack(n_azimuths=4, sample_rate=44100), tmp_path)
        with pytest.raises(ValueError) as info:
            load_or_default_pack(tmp_path, 16000)
        assert str(info.value) == (
            f"the HRIR pack in {tmp_path} is recorded at 44100 Hz, not at the audio's 16000 Hz"
        )

    def test_saved_pack_needs_no_rate_rule(self, tmp_path):
        save_pack(synth_pack(n_azimuths=4, sample_rate=8000), tmp_path)
        assert load_or_default_pack(tmp_path, 8000).sample_rate == 8000
