import ast
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydoct.cli
import rydoct.manifest
from rydoct import (
    CESIUM_DEFECTS,
    BasisSpec,
    ManifestError,
    PulseGrid,
    RadialGrid,
    build_hamiltonian,
    load_hamiltonian,
    precompute_z_eigensystem,
    save_hamiltonian,
)
from rydoct.cli import main
from rydoct.manifest import (
    COMMANDS,
    MAX_BASIS_VALUES,
    MAX_HUSIMI_VALUES,
    MAX_PULSE_STEPS,
    MAX_SPECTRUM_SAMPLES,
    _median,
    _nearest_gap_distance,
    build_basis,
    build_guess_pulse,
    load_manifest,
    parse_manifest,
    read_field_csv,
    run,
    write_field_csv,
)
from rydoct.units import parse_quantity
from tests.conftest import MANIFEST_DIR, tiny_manifest_dict

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"


@pytest.fixture()
def tiny_manifest_path(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(tiny_manifest_dict(str(tmp_path / "out"))))
    return path


class TestManifestValidation:
    def test_missing_schema_version(self):
        with pytest.raises(ManifestError, match="schema_version"):
            parse_manifest({"basis": {}})

    def test_missing_basis_key(self):
        data = tiny_manifest_dict("out")
        del data["basis"]["n_max"]
        with pytest.raises(ManifestError, match="basis.n_max"):
            parse_manifest(data)

    def test_bad_defect_preset(self):
        data = tiny_manifest_dict("out")
        data["basis"]["defects"] = "unobtainium"
        with pytest.raises(ManifestError, match="basis.defects"):
            parse_manifest(data)

    def test_bad_unit_string_names_key(self):
        data = tiny_manifest_dict("out")
        data["pulse"]["dt"] = "10 kV/cm"
        with pytest.raises(ManifestError, match="pulse.dt"):
            parse_manifest(data)

    def test_bad_update_mode(self):
        data = tiny_manifest_dict("out")
        data["oct"]["update_mode"] = "sideways"
        with pytest.raises(ManifestError, match="oct.update_mode"):
            parse_manifest(data)

    def test_horizon_must_exceed_dt(self):
        data = tiny_manifest_dict("out")
        data["pulse"]["horizon"] = "1 fs"
        with pytest.raises(ManifestError, match="pulse.horizon"):
            parse_manifest(data)

    def test_guess_grid_step_limit(self):
        data = tiny_manifest_dict("out")
        data["pulse"]["dt"] = 1.0
        data["pulse"]["horizon"] = float(MAX_PULSE_STEPS)
        assert build_guess_pulse(parse_manifest(data)).n_steps == MAX_PULSE_STEPS
        data["pulse"]["horizon"] = float(MAX_PULSE_STEPS + 1)
        with pytest.raises(ManifestError, match="^pulse.horizon: .* limit of 100000$"):
            parse_manifest(data)


    def test_basis_size_limit(self):
        # Checked at load only: none of these bases is ever built.  The tiny
        # basis has 6 states (n 24-26, l < 2).
        data = tiny_manifest_dict("out")
        data["basis"]["grid_points"] = MAX_BASIS_VALUES // 6
        assert parse_manifest(data).basis["grid_points"] == MAX_BASIS_VALUES // 6
        data["basis"]["grid_points"] = MAX_BASIS_VALUES // 6 + 1
        with pytest.raises(ManifestError, match="^basis.grid_points: .* 6 states .* limit"):
            parse_manifest(data)
        for key, value in (("grid_points", 10**9), ("n_max", 10**6)):
            data = tiny_manifest_dict("out")
            data["basis"][key] = value
            with pytest.raises(ManifestError, match="^basis.grid_points: "):
                parse_manifest(data)


def _mutated(section, key, value):
    data = json.loads((MANIFEST_DIR / "single_target.json").read_text())
    (data[section] if section else data)[key] = value
    return data


def _long_guess_grid():
    # 1e21 steps: numpy used to fail allocating the guess grid with a traceback.
    data = _mutated("pulse", "horizon", 1e12)
    data["pulse"]["dt"] = 1e-9
    return data


#: A file of bytes that are not UTF-8 text, written into the directory the
#: malformed manifests run in, so that a relative path in a manifest finds it.
BINARY_FILE = "binary.dat"
BINARY_BYTES = b"\x89PNG\r\n\x1a\n\xff\xfe\x00\x80"

#: Malformed manifests: (manifest, the key its error must name).
BAD_MANIFESTS = {
    "json_array": ([1, 2], "manifest"),
    "record_stride_text": (_mutated("pulse", "record_stride", "abc"), "pulse.record_stride"),
    "record_stride_numeric_text": (
        _mutated("pulse", "record_stride", "10"),
        "pulse.record_stride",
    ),
    "grid_points_text": (_mutated("basis", "grid_points", "many"), "basis.grid_points"),
    "marked_number": (_mutated("register", "marked", 5), "register.marked"),
    "r_min_text": (_mutated("basis", "r_min", "x"), "basis.r_min"),
    # Optimized with exit 0 and wrote "defect -1 0.5" into the basis file.
    "defect_negative_l": (_mutated("basis", "defects", {"-1": 0.5}), "basis.defects"),
    # The radial grid is uniform in sqrt(r): both ends must be positive.
    "r_min_negative": (_mutated("basis", "r_min", -1e-4), "basis.r_min"),
    "r_max_negative": (_mutated("basis", "r_max", -5), "basis.r_max"),
    "max_iterations_text": (_mutated("oct", "max_iterations", "x"), "oct.max_iterations"),
    "penalty_base_nan": (_mutated("oct", "penalty_base", float("nan")), "oct.penalty_base"),
    "update_mode_add": (_mutated("oct", "update_mode", "add"), "oct.update_mode"),
    "absorber_strength_text": (
        _mutated("pulse", "absorber_strength", "x"),
        "pulse.absorber_strength",
    ),
    "ensemble_marked_string": (
        _mutated("register", "ensemble_marked", "25p"),
        "register.ensemble_marked",
    ),
    "output_dir_number": (_mutated(None, "output_dir", 5), "output_dir"),
    "n_max_bool": (_mutated("basis", "n_max", True), "basis.n_max"),
    "pad_factor_text": (_mutated("analysis", "pad_factor", "x"), "analysis.pad_factor"),
    "guess_grid_too_long": (_long_guess_grid(), "pulse.horizon"),
    # One point over the limit on the 55-state basis, so that a build that
    # got past the check would still be small.
    "basis_too_large": (
        _mutated("basis", "grid_points", MAX_BASIS_VALUES // 55 + 1),
        "basis.grid_points",
    ),
    "hamiltonian_file_binary": (
        _mutated("basis", "hamiltonian_file", BINARY_FILE),
        "basis.hamiltonian_file",
    ),
}


class TestMalformedManifests:
    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_is_one_json_error_naming_the_key(self, tmp_path, capsys, monkeypatch, case):
        data, key = BAD_MANIFESTS[case]
        (tmp_path / BINARY_FILE).write_bytes(BINARY_BYTES)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["basis", "--manifest", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ManifestError"
        assert payload["message"].startswith(f"{key}: ")
        assert not (tmp_path / "o").exists()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_shipped_manifests_raise_only_manifest_error(self, data):
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=4), inner, max_size=3),
            max_leaves=6,
        )
        # Change, drop or add one key of the top level or of one section;
        # now and then replace the whole document.
        name = data.draw(st.sampled_from(["single_target.json", "universal.json"]))
        manifest = json.loads((MANIFEST_DIR / name).read_text())
        target = manifest
        section = data.draw(st.sampled_from(sorted(manifest)))
        if isinstance(manifest[section], dict) and data.draw(st.booleans()):
            target = manifest[section]
        key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=4))
        if data.draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = data.draw(json_values)
        if data.draw(st.integers(0, 9)) == 0:
            manifest = data.draw(json_values)
        try:
            parse_manifest(manifest)
        except ManifestError:
            pass


class TestUnitRoundTrip:
    def test_lab_and_atomic_manifests_agree(self, tmp_path):
        lab = tiny_manifest_dict(str(tmp_path / "a"))
        atomic = tiny_manifest_dict(str(tmp_path / "b"))
        atomic["pulse"]["dt"] = parse_quantity("10 fs", "time")
        atomic["pulse"]["horizon"] = parse_quantity("2 ps", "time")
        atomic["pulse"]["width"] = parse_quantity("0.4 ps", "time")
        atomic["pulse"]["t_peak"] = 0.0
        atomic["pulse"]["peak"] = parse_quantity("0.2 kV/cm", "field")
        pulse_lab = build_guess_pulse(parse_manifest(lab))
        pulse_atomic = build_guess_pulse(parse_manifest(atomic))
        assert pulse_lab.dt == pulse_atomic.dt
        assert np.array_equal(pulse_lab.samples, pulse_atomic.samples)

    def test_byte_identical_outputs(self, tmp_path):
        lab = tiny_manifest_dict(str(tmp_path / "a"))
        atomic = tiny_manifest_dict(str(tmp_path / "b"))
        atomic["pulse"]["dt"] = parse_quantity("10 fs", "time")
        atomic["pulse"]["horizon"] = parse_quantity("2 ps", "time")
        atomic["pulse"]["width"] = parse_quantity("0.4 ps", "time")
        atomic["pulse"]["t_peak"] = 0.0
        atomic["pulse"]["peak"] = parse_quantity("0.2 kV/cm", "field")
        m_lab = parse_manifest(lab)
        m_atomic = parse_manifest(atomic)
        h = build_basis(m_lab)
        run("propagate", m_lab, tmp_path / "a", h=h)
        run("propagate", m_atomic, tmp_path / "b", h=h)
        for name in ("trajectory.csv", "field.csv", "readout.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRunners:
    def test_run_basis_round_trips(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        out = tmp_path / "basis_out"
        result = run("basis", manifest, out)
        loaded = load_hamiltonian(out / "hamiltonian.txt")
        built = build_basis(manifest)
        assert loaded.labels == built.labels
        assert np.array_equal(loaded.energies, built.energies)
        assert np.array_equal(loaded.z_matrix, built.z_matrix)
        assert result["metrics"]["basis_size"] == 6

    def test_hamiltonian_file_gives_the_cached_basis_outputs(self, tiny_manifest_path, tmp_path):
        # `rydoct basis` writes hamiltonian.txt; `optimize` on that file, as
        # basis.hamiltonian_file, writes the bytes that `optimize` on the
        # cached basis writes, but for summary.json's `parameters`, which
        # echo the manifest.
        basis_out = tmp_path / "basis"
        assert main(["basis", "--manifest", str(tiny_manifest_path), "--out", str(basis_out)]) == 0
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["basis"]["hamiltonian_file"] = str(basis_out / "hamiltonian.txt")
        file_manifest = tmp_path / "file.json"
        file_manifest.write_text(json.dumps(data))
        outputs, summaries = {}, {}
        for route, path in (("cached", tiny_manifest_path), ("file", file_manifest)):
            out = tmp_path / route
            assert main(["optimize", "--manifest", str(path), "--out", str(out)]) == 0
            outputs[route] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            summaries[route] = json.loads(outputs[route].pop("summary.json"))
        assert set(outputs["cached"]) == {
            "guess_field.csv",
            "history.csv",
            "optimized_field.csv",
            "readout.json",
        }
        assert outputs["file"] == outputs["cached"]
        parameters = {route: summary.pop("parameters") for route, summary in summaries.items()}
        assert parameters["file"]["basis"]["hamiltonian_file"] == data["basis"]["hamiltonian_file"]
        assert summaries["file"] == summaries["cached"]

    def test_run_propagate_zero_field_uniform(self, tmp_path):
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["pulse"]["kind"] = "zero"
        manifest = parse_manifest(data)
        out = tmp_path / "prop"
        run("propagate", manifest, out)
        readout = json.loads((out / "readout.json").read_text())
        for pop in readout["populations"].values():
            assert pop == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert readout["leaked"] == pytest.approx(0.0, abs=1e-10)

    def test_run_propagate_with_absorber_damps_norm(self, tmp_path):
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["pulse"]["absorber_strength"] = 0.2
        manifest = parse_manifest(data)
        out = tmp_path / "absorbed"
        result = run("propagate", manifest, out)
        assert result["metrics"]["final_norm"] < 1.0

    def test_run_optimize_outputs(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        out = tmp_path / "opt"
        result = run("optimize", manifest, out)
        history = (out / "history.csv").read_text().strip().splitlines()
        assert history[0] == "iteration,J,yield,Y,delta3"
        assert len(history) == 1 + 3  # header + max_iterations rows
        assert (out / "optimized_field.csv").exists()
        assert (out / "readout.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "optimize"
        assert "boundary_shell_population" in summary["metrics"]
        assert result["metrics"]["iterations"] == 3

    def test_run_optimize_deterministic(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        h = build_basis(manifest)
        run("optimize", manifest, tmp_path / "r1", h=h)
        run("optimize", manifest, tmp_path / "r2", h=h)
        for name in ("optimized_field.csv", "history.csv", "readout.json", "summary.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_run_optimize_universal_outputs(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        out = tmp_path / "uni"
        result = run("optimize-universal", manifest, out)
        table = json.loads((out / "decode_test.json").read_text())["entries"]
        assert [row["marked"] for row in table] == ["24p", "25p", "26p"]
        history = (out / "history.csv").read_text().splitlines()
        assert "yield_24p" in history[0] and "yield_25p" in history[0]
        assert result["metrics"]["excluded_bits"] == ["26p"]

    def test_run_analyze_outputs(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        pulse = build_guess_pulse(manifest)
        field_path = tmp_path / "field.csv"
        write_field_csv(field_path, pulse)
        out = tmp_path / "ana"
        run("analyze", manifest, out, field_path)
        spectrum_lines = (out / "spectrum.csv").read_text().splitlines()
        assert spectrum_lines[0] == "frequency,magnitude,nearest_gap_distance"
        assert len(spectrum_lines) > 10
        # Reference: every dipole-allowed gap, pair by pair.
        h = build_basis(manifest)
        gaps = {
            abs(float(h.energies[i] - h.energies[j]))
            for i, a in enumerate(h.labels)
            for j in range(i + 1, h.dim)
            if abs(a.l - h.labels[j].l) == 1
        }
        for line in spectrum_lines[1:]:
            frequency, _, nearest = map(float, line.split(","))
            assert nearest == min(abs(frequency - gap) for gap in gaps)
        husimi_lines = (out / "husimi.csv").read_text().splitlines()
        assert husimi_lines[0].startswith("time,")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_nearest_gap_is_the_minimum_over_all_gaps(self, data):
        # The sorted search gives the bytes of the brute-force minimum for
        # any sorted gaps: at exact hits, at midpoints and next to them, and
        # below the smallest and above the largest gap.
        scale = data.draw(st.sampled_from([1e-6, 1.0, 1e6]))
        values = st.floats(min_value=-scale, max_value=scale)
        gaps = np.unique(data.draw(st.lists(values, min_size=1, max_size=30)))
        mids = (gaps[:-1] + gaps[1:]) / 2.0
        ends = np.array([gaps[0] - scale, gaps[0], gaps[-1], gaps[-1] + scale])
        picked = np.concatenate((gaps, mids, ends, data.draw(st.lists(values, max_size=30))))
        frequencies = np.concatenate(
            (picked, np.nextafter(picked, -np.inf), np.nextafter(picked, np.inf))
        )
        expected = np.min(np.abs(frequencies[:, None] - gaps[None, :]), axis=1)
        assert _nearest_gap_distance(frequencies, gaps).tobytes() == expected.tobytes()

    def test_analyze_memory_grows_with_its_outputs(self, tmp_path):
        # 201 samples padded 1000-fold: 100 501 spectrum bins.  Every bin
        # against every gap, or the whole text of spectrum.csv, does not fit.
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["analysis"]["pad_factor"] = 1000
        manifest = parse_manifest(data)
        h = build_basis(manifest)
        field_path = tmp_path / "field.csv"
        write_field_csv(field_path, build_guess_pulse(manifest))
        tracemalloc.start()
        try:
            run("analyze", manifest, tmp_path / "ana", field_path, h=h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        # Written a thousand lines at a time, with no line lost or doubled
        # at the seams.
        text = (tmp_path / "ana" / "spectrum.csv").read_text()
        assert len(text.splitlines()) == 100_502
        assert text.endswith("\n") and "\n\n" not in text

    def test_csv_text_is_the_repr_of_each_cell(self, tmp_path):
        # Python floats of each column, formatted by repr, give the text of
        # repr(float(cell)) per numpy scalar, with a string column as given;
        # tables longer and wider than one write check the seams.
        rng = np.random.default_rng(11)
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0**-1074 * 3]
        for n_rows, n_floats in ((2 * rydoct.manifest.CSV_CHUNK_CELLS + 7, 2), (70, 101)):
            scales = 10.0 ** rng.integers(-300, 300, (n_rows, 1))
            floats = rng.normal(size=(n_rows, n_floats)) * scales
            floats[: len(special), 0] = special
            floats[-len(special) :, -1] = special
            iterations = [str(i) for i in range(1, n_rows + 1)]
            header = ["iteration", *(f"c{k}" for k in range(n_floats))]
            path = tmp_path / f"table{n_floats}.csv"
            rydoct.manifest._write_csv(path, header, [iterations, *floats.T])
            rows = (
                ",".join([i, *(repr(float(value)) for value in row)])
                for i, row in zip(iterations, floats)
            )
            assert path.read_text() == ",".join(header) + "\n" + "".join(r + "\n" for r in rows)

    def test_run_decode_test_outputs(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        pulse = build_guess_pulse(manifest)
        field_path = tmp_path / "field.csv"
        write_field_csv(field_path, pulse)
        out = tmp_path / "dt"
        result = run("decode-test", manifest, out, field_path)
        assert (out / "decode_test.json").exists()
        assert len(result["decode_table"]) == 3

    def test_field_csv_round_trip(self, tiny_manifest_path, tmp_path):
        manifest = load_manifest(tiny_manifest_path)
        pulse = build_guess_pulse(manifest)
        path = tmp_path / "field.csv"
        write_field_csv(path, pulse)
        back = read_field_csv(path)
        assert back.dt == pulse.dt
        assert np.array_equal(back.samples, pulse.samples)


class TestCliEntryPoint:
    def test_basis_command_succeeds(self, tiny_manifest_path, tmp_path, capsys):
        code = main(
            ["basis", "--manifest", str(tiny_manifest_path), "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert (tmp_path / "o" / "hamiltonian.txt").exists()

    def test_error_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        code = main(["basis", "--manifest", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ManifestError"
        assert "schema_version" in err["message"]

    def test_missing_manifest_file(self, tmp_path, capsys):
        code = main(["basis", "--manifest", str(tmp_path / "none.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "IOError"

    @pytest.mark.parametrize("base", [1e-300, 1e-320])
    def test_penalty_too_small_for_the_update_is_a_json_error(self, tmp_path, capsys, base):
        # The first update's field is about overlap / base: at 1e-300 its
        # fluence cost overflows (J = -inf, Y = inf), at 1e-320 the field
        # itself does.
        manifest = json.loads((MANIFEST_DIR / "single_target.json").read_text())
        manifest["oct"]["penalty_base"] = base
        manifest["oct"]["max_iterations"] = 3
        path = tmp_path / "penalty.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o"
        code = main(["optimize", "--manifest", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "InvalidSpecError"
        assert payload["message"].startswith("iteration 1: ")
        assert f"penalty base {base!r} is too small" in payload["message"]
        assert not (out / "history.csv").exists()

    def test_analyze_without_dipole_pairs_is_a_json_error(self, tmp_path, capsys):
        # s states only: no level gap for the spectrum's nearest-gap column.
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["basis"]["l_max"] = 1
        path = tmp_path / "s_only.json"
        path.write_text(json.dumps(data))
        field = tmp_path / "field.csv"
        write_field_csv(field, build_guess_pulse(parse_manifest(data)))
        code = main(["analyze", "--manifest", str(path), "--field", str(field)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["message"].startswith("basis.l_max: ")

    def test_oversized_husimi_map_is_a_json_error(self, tiny_manifest_path, tmp_path, capsys):
        # The fewest samples whose Husimi map at the manifest's stride holds
        # more than the limit: about 2.6 G complex multiply-adds had husimi run.
        stride = json.loads(tiny_manifest_path.read_text())["analysis"]["husimi_time_stride"]
        n_samples = math.isqrt(MAX_HUSIMI_VALUES * stride)
        while -(-n_samples // stride) * n_samples <= MAX_HUSIMI_VALUES:
            n_samples += 1
        field = tmp_path / "long.csv"
        write_field_csv(field, PulseGrid.zeros(0.0, 413.41, n_samples))
        out = tmp_path / "o"
        argv = ["analyze", "--manifest", str(tiny_manifest_path), "--field", str(field)]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ManifestError"
        assert payload["message"].startswith("analysis.husimi_time_stride: ")
        assert str(MAX_HUSIMI_VALUES) in payload["message"]
        assert peak < 32 * 2**20
        assert not (out / "spectrum.csv").exists() and not (out / "husimi.csv").exists()

    def test_husimi_limit_is_inclusive(self, tiny_manifest_path, tmp_path, capsys, monkeypatch):
        # A map of exactly the limit runs; one value less of limit stops it.
        data = json.loads(tiny_manifest_path.read_text())
        pulse = build_guess_pulse(parse_manifest(data))
        stride = data["analysis"]["husimi_time_stride"]
        values = -(-len(pulse.samples) // stride) * len(pulse.samples)
        field = tmp_path / "field.csv"
        write_field_csv(field, pulse)
        argv = ["analyze", "--manifest", str(tiny_manifest_path), "--field", str(field)]
        for limit, code in ((values, 0), (values - 1, 1)):
            monkeypatch.setattr(rydoct.manifest, "MAX_HUSIMI_VALUES", limit)
            assert main(argv + ["--out", str(tmp_path / f"o{limit}")]) == code
        assert "analysis.husimi_time_stride: " in capsys.readouterr().err
        assert (tmp_path / f"o{values}" / "husimi.csv").exists()

    @staticmethod
    def _husimi_of(tmp_path, capsys, sigma, dt=None):
        """`analyze` of the tiny manifest's guess field (on a grid of step
        `dt` if one is given) at analysis.husimi_sigma = `sigma`: the field
        as read back, the map's frequencies and its intensities."""
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["analysis"]["husimi_sigma"] = sigma
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(data))
        pulse = build_guess_pulse(parse_manifest(data))
        if dt is not None:
            pulse = PulseGrid(0.0, dt, pulse.samples)
        field = tmp_path / "field.csv"
        write_field_csv(field, pulse)
        out = tmp_path / "o"
        code = main(["analyze", "--manifest", str(path), "--field", str(field), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert code == 0
        rows = np.loadtxt(out / "husimi.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        return read_field_csv(field), rows[:, 0], rows[:, 1:]

    @pytest.mark.parametrize("sigma", [1e308, "1e300 ps"])
    def test_wide_husimi_window_gives_the_field_spectrum(self, tmp_path, capsys, sigma):
        # sigma**2 overflowed from about 1e154 a.u.  Past that width every
        # window is 1 over the whole field.
        pulse, freqs, intensity = self._husimi_of(tmp_path, capsys, sigma)
        kernel = np.exp(-1j * np.outer(freqs, pulse.times()))
        spectrum = (pulse.dt * np.abs(kernel @ pulse.samples)) ** 2
        assert np.all(intensity == intensity[:, :1])
        assert np.max(np.abs(intensity[:, 0] - spectrum)) <= 1e-9 * np.max(spectrum)

    def test_default_husimi_window_on_a_wide_grid(self, tmp_path, capsys):
        # The default sigma, a quarter of the field's span, passes 1e154 a.u.
        # on a grid of 1e152 a.u. steps.
        _, _, intensity = self._husimi_of(tmp_path, capsys, None, dt=1e152)
        assert np.max(intensity) > 0

    def test_narrow_husimi_window_samples_the_field(self, tmp_path, capsys):
        # 2 sigma**2 underflowed to 0 below about 1e-162 a.u., which made
        # every intensity NaN.  Each window is now 1 at its center's sample
        # and 0 elsewhere, so each center sees (dt E) ** 2 at every frequency.
        pulse, _, intensity = self._husimi_of(tmp_path, capsys, 1e-170)
        expected = (pulse.dt * pulse.samples[::16]) ** 2
        assert np.any(expected > 0)
        assert np.allclose(intensity, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("pad_factor", ["fewest", 10**7])
    def test_oversized_spectrum_is_a_json_error(self, tmp_path, capsys, pad_factor):
        # The fewest padded samples over the limit, and a padding whose
        # spectrum alone would need tens of GB.
        data = tiny_manifest_dict(str(tmp_path / "out"))
        pulse = build_guess_pulse(parse_manifest(data))
        n_samples = len(pulse.samples)
        if pad_factor == "fewest":
            pad_factor = MAX_SPECTRUM_SAMPLES // n_samples + 1
        data["analysis"]["pad_factor"] = pad_factor
        path = tmp_path / "padded.json"
        path.write_text(json.dumps(data))
        field = tmp_path / "field.csv"
        write_field_csv(field, pulse)
        out = tmp_path / "o"
        argv = ["analyze", "--manifest", str(path), "--field", str(field)]
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ManifestError"
        assert payload["message"].startswith("analysis.pad_factor: ")
        assert str(MAX_SPECTRUM_SAMPLES) in payload["message"]
        assert peak < 4 * 2**20
        assert not (out / "spectrum.csv").exists() and not (out / "husimi.csv").exists()

    def test_spectrum_limit_is_inclusive(self, tiny_manifest_path, tmp_path, capsys, monkeypatch):
        # A padded field of exactly the limit runs; one sample less of limit
        # stops it.
        data = json.loads(tiny_manifest_path.read_text())
        pulse = build_guess_pulse(parse_manifest(data))
        padded = data["analysis"]["pad_factor"] * len(pulse.samples)
        field = tmp_path / "field.csv"
        write_field_csv(field, pulse)
        argv = ["analyze", "--manifest", str(tiny_manifest_path), "--field", str(field)]
        for limit, code in ((padded, 0), (padded - 1, 1)):
            monkeypatch.setattr(rydoct.manifest, "MAX_SPECTRUM_SAMPLES", limit)
            assert main(argv + ["--out", str(tmp_path / f"o{limit}")]) == code
        assert "analysis.pad_factor: " in capsys.readouterr().err
        assert (tmp_path / f"o{padded}" / "spectrum.csv").exists()

    def test_default_padding_of_the_longest_field_fits(self):
        assert 4 * (MAX_PULSE_STEPS + 1) <= MAX_SPECTRUM_SAMPLES

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key, value", [("penalty_base", 1e307), ("edge_multiplier", 1e308)])
    def test_overflowing_penalty_is_a_json_error(self, tmp_path, capsys, key, value):
        # The manifest passes its checks, but the penalty overflows to inf;
        # the run must stop, with no overflow warning, before it writes a
        # NaN objective.
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["oct"][key] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        code = main(["optimize", "--manifest", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "InvalidSpecError"
        assert "finite" in payload["message"]
        assert not (tmp_path / "out" / "history.csv").exists()
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["optimize", "optimize-universal"])
    @pytest.mark.parametrize("peak", [1e150, 1e300])
    def test_guess_whose_cost_overflows_is_a_json_error(self, tmp_path, capsys, command, peak):
        # A finite guess (peak in atomic units) whose fluence cost overflows
        # to inf: the run must stop before it starts from J = -inf, with no
        # overflow warning.
        data = tiny_manifest_dict(str(tmp_path / "out"))
        data["pulse"]["peak"] = peak
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(data))
        code = main([command, "--manifest", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "InvalidSpecError"
        assert "fluence cost" in payload["message"]
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_verbose_flag(self, tiny_manifest_path, tmp_path, capsys):
        code = main(
            [
                "propagate",
                "--manifest",
                str(tiny_manifest_path),
                "--out",
                str(tmp_path / "v"),
                "--verbose",
            ]
        )
        assert code == 0
        assert "[rydoct]" in capsys.readouterr().err


def _child_wraps() -> set[tuple[str, str]]:
    """(module, attribute) of every function perfbench/child.py replaces."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text())
    wraps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
            module, attr = node.args[:2]
            if isinstance(attr, ast.Constant):  # the set-up spans loop is read below
                wraps.add((module.id, attr.value))
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SETUP_SPANS":
            wraps.update(("manifest", value.value) for value in node.value.values)
    return wraps


class TestPerfbenchHooks:
    """perfbench/child.py times commands by replacing module attributes."""

    def test_every_wrapped_attribute_exists(self):
        modules = {"manifest": rydoct.manifest, "cli": rydoct.cli, "atomic": rydoct.atomic}
        wraps = _child_wraps()
        assert ("manifest", "build_basis") in wraps and ("cli", "load_manifest") in wraps
        for module, attr in wraps:
            assert callable(getattr(modules[module], attr)), f"{module}.{attr}"

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_each_command_builds_the_basis_once(
        self, tiny_manifest_path, tmp_path, monkeypatch, command
    ):
        calls = []

        def counted(manifest):
            calls.append(manifest)
            return build_basis(manifest)

        monkeypatch.setattr(rydoct.manifest, "build_basis", counted)
        argv = [command, "--manifest", str(tiny_manifest_path), "--out", str(tmp_path / "o")]
        if COMMANDS[command].reads_field:
            field = tmp_path / "field.csv"
            write_field_csv(field, build_guess_pulse(load_manifest(tiny_manifest_path)))
            argv += ["--field", str(field)]
        assert main(argv) == 0
        assert len(calls) == 1


    def test_probe_fills_the_requested_spans(self, tmp_path):
        # perfbench/probe.py drives the library API (OctProblem, both
        # optimizers and their results, register_ensemble_problem, decode_test).
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(tiny_manifest_dict(str(tmp_path / "out"))))
        field = tmp_path / "field.csv"
        write_field_csv(field, build_guess_pulse(load_manifest(manifest)))
        wanted = ["control.optimize_s", "ensemble.optimize_s", "ensemble.decode_test_s"]
        spans = tmp_path / "spans.json"
        args = [ROOT / "perfbench" / "probe.py", spans, manifest, field, tmp_path, *wanted]
        run = _run_cli([str(arg) for arg in args], tmp_path)
        assert run.returncode == 0, run.stderr
        names = {span["name"] for span in json.loads(spans.read_text())}
        assert set(wanted) <= names


#: One change to each input of a basis build, all on the tiny manifest.
BASIS_CHANGES = {
    "n_min": 23,
    "n_max": 27,
    "l_max": 3,
    "defects": "hydrogen",
    "grid_points": 4001,
    "r_min": 2e-4,
    "r_max": 1700.0,
}


class TestBasisCache:
    """build_basis keeps each basis it builds under $XDG_CACHE_HOME/rydoct."""

    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        return tmp_path / "cache" / "rydoct"

    @pytest.fixture()
    def builds(self, monkeypatch):
        """The basis specs build_basis has built rather than read."""
        specs = []

        def counted(spec, grid):
            specs.append(spec)
            return build_hamiltonian(spec, grid)

        monkeypatch.setattr(rydoct.manifest, "build_hamiltonian", counted)
        return specs

    def _basis_outputs(self, manifest_path, out) -> dict[str, bytes]:
        assert main(["basis", "--manifest", str(manifest_path), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def _assert_hit_equals(self, manifest, fresh, cache, builds, monkeypatch):
        """A miss, then a hit that calls no SVD: both equal `fresh`, a
        build_hamiltonian of the manifest's basis, and so do their z
        eigensystems."""
        expected = precompute_z_eigensystem(fresh)
        build_basis(manifest)

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called on a cached basis")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        h = build_basis(manifest)
        zsys = precompute_z_eigensystem(h)
        assert len(builds) == 1
        assert len(list(cache.iterdir())) == 1
        assert h.labels == fresh.labels
        assert np.array_equal(h.energies, fresh.energies)
        assert np.array_equal(h.z_matrix, fresh.z_matrix)
        assert h.basis_spec == fresh.basis_spec
        assert h.provenance == fresh.provenance
        assert np.array_equal(zsys.eigenvalues, expected.eigenvalues)
        assert np.array_equal(zsys.vectors, expected.vectors)
        assert np.array_equal(zsys.z, expected.z)
        for name in ("order", "q", "w", "s"):
            assert np.array_equal(getattr(zsys.parity, name), getattr(expected.parity, name)), name

    def test_hit_equals_a_fresh_build(self, tmp_path, cache, builds, monkeypatch):
        manifest = parse_manifest(tiny_manifest_dict(str(tmp_path)))
        cfg = manifest.basis
        fresh = build_hamiltonian(
            BasisSpec(cfg["n_min"], cfg["n_max"], cfg["l_max"], CESIUM_DEFECTS),
            RadialGrid.for_basis(cfg["n_max"], n_points=cfg["grid_points"]),
        )
        self._assert_hit_equals(manifest, fresh, cache, builds, monkeypatch)

    def test_hit_equals_a_fresh_build_187(self, cache, builds, monkeypatch, full_h):
        # The shipped manifest at l < 17 is full_h's basis, on its grid.
        data = json.loads((MANIFEST_DIR / "single_target.json").read_text())
        data["basis"]["l_max"] = 17
        assert full_h.dim == 187
        self._assert_hit_equals(parse_manifest(data), full_h, cache, builds, monkeypatch)

    @pytest.mark.parametrize("key", sorted(BASIS_CHANGES))
    def test_each_basis_input_is_in_the_key(self, tmp_path, cache, builds, key):
        data = tiny_manifest_dict(str(tmp_path))
        build_basis(parse_manifest(data))
        data["basis"][key] = BASIS_CHANGES[key]
        build_basis(parse_manifest(data))
        assert len(builds) == 2
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize("change", ["atomic.py", "numpy"])
    def test_changed_build_code_misses(self, tmp_path, cache, builds, monkeypatch, change):
        manifest = parse_manifest(tiny_manifest_dict(str(tmp_path)))
        build_basis(manifest)
        if change == "atomic.py":
            source = tmp_path / "atomic.py"
            source.write_bytes(Path(rydoct.atomic.__file__).read_bytes() + b"\n")
            monkeypatch.setattr(rydoct.atomic, "__file__", str(source))
        else:
            monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
        build_basis(manifest)
        assert len(builds) == 2
        assert len(list(cache.iterdir())) == 2

    @pytest.mark.parametrize(
        "damage", ["truncated", "flipped_byte", "other_basis", "wrong_length"]
    )
    def test_bad_entry_is_rebuilt_and_overwritten(
        self, tiny_manifest_path, tmp_path, cache, builds, capsys, damage
    ):
        cold = self._basis_outputs(tiny_manifest_path, tmp_path / "cold")
        (entry,) = cache.iterdir()
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[: len(good) // 2])
        elif damage == "flipped_byte":
            bad = bytearray(good)
            bad[len(bad) // 2] ^= 0x01
            entry.write_bytes(bytes(bad))
        elif damage == "wrong_length":
            # Whole and intact, with eight more bytes after its checksum.
            entry.write_bytes(good + bytes(8))
        else:
            data = tiny_manifest_dict(str(tmp_path))
            data["basis"]["l_max"] = 3
            build_basis(parse_manifest(data))
            (other,) = set(cache.iterdir()) - {entry}
            other.replace(entry)
        assert self._basis_outputs(tiny_manifest_path, tmp_path / "rebuilt") == cold
        assert "Traceback" not in capsys.readouterr().err
        assert entry.read_bytes() == good
        assert len(builds) == (3 if damage == "other_basis" else 2)

    def test_unwritable_cache_changes_no_output(
        self, tiny_manifest_path, tmp_path, cache, monkeypatch, capsys
    ):
        cold = self._basis_outputs(tiny_manifest_path, tmp_path / "cold")
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        for name in ("first", "second"):
            assert self._basis_outputs(tiny_manifest_path, tmp_path / name) == cold
        assert capsys.readouterr().err == ""

    def test_hamiltonian_file_bypasses_the_cache(self, tmp_path, cache, builds):
        data = tiny_manifest_dict(str(tmp_path))
        build_basis(parse_manifest(data))
        # The file holds another basis than the manifest's keys describe.
        other = build_hamiltonian(
            BasisSpec(24, 26, 3, CESIUM_DEFECTS), RadialGrid.for_basis(26, n_points=4000)
        )
        data["basis"]["hamiltonian_file"] = str(tmp_path / "other.txt")
        save_hamiltonian(other, data["basis"]["hamiltonian_file"])
        h = build_basis(parse_manifest(data))
        assert h.labels == other.labels
        assert np.array_equal(h.z_matrix, other.z_matrix)
        # The loaded basis takes its own SVD, that of the build.
        for got, want in zip(h.parity_svd, other.parity_svd):
            assert np.array_equal(got, want)
        assert len(builds) == 1
        assert len(list(cache.iterdir())) == 1


BAD_FIELD_CSVS = {
    "one_row": ("time,E\n0.0,1e-07\n", "line 2"),
    "non_numeric": ("time,E\n0.0,1e-07\n10.0,abc\n20.0,0.0\n", "line 3"),
    "non_uniform": ("time,E\n0.0,0.0\n1.0,0.0\n5.0,0.0\n6.0,0.0\n", "line 4"),
    "not_text": (BINARY_BYTES, "not a text file"),
    # Finite times whose step overflows to dt = inf.
    "step_overflows": ("time,E\n-1e308,0.0\n1e308,0.0\n", "line 3"),
    # Every line holds exactly two cells.
    "header_of_three": ("time,E,x\n0.0,1.0,2.0\n1.0,1.0,2.0\n2.0,1.0,2.0\n", "line 1"),
    "row_of_three": ("time,E\n0.0,0.0\n1.0,0.0,5.0\n2.0,0.0\n", "line 3"),
}


class TestFieldCsvHardening:
    @pytest.mark.parametrize("command", ["analyze", "decode-test"])
    @pytest.mark.parametrize("case", sorted(BAD_FIELD_CSVS))
    def test_bad_field_is_a_json_error(self, tiny_manifest_path, tmp_path, capsys, command, case):
        text, where = BAD_FIELD_CSVS[case]
        field = tmp_path / f"{case}.csv"
        field.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = [command, "--manifest", str(tiny_manifest_path), "--field", str(field)]
        code = main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        payload = json.loads(err.strip().splitlines()[-1])
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ManifestError"
        assert str(field) in payload["message"]
        assert where in payload["message"]

    def test_field_whose_phase_overflows_is_a_json_error(
        self, tiny_manifest_path, tmp_path, capsys
    ):
        # |E| dt max|w| overflows, so every phase would be NaN.
        field = tmp_path / "huge.csv"
        field.write_text("time,E\n0.0,1e308\n413.41,0.0\n")
        out = tmp_path / "o"
        argv = ["decode-test", "--manifest", str(tiny_manifest_path), "--field", str(field)]
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "InvalidSpecError"
        assert "overflow" in payload["message"]
        assert not (out / "decode_test.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_field_whose_spectrum_overflows_is_a_json_error(
        self, tiny_manifest_path, tmp_path, capsys
    ):
        # dt sum |E| overflows, so the spectrum and the Husimi map would be inf.
        field = tmp_path / "huge.csv"
        field.write_text("time,E\n0.0,1e308\n413.41,0.0\n826.82,0.0\n")
        out = tmp_path / "o"
        argv = ["analyze", "--manifest", str(tiny_manifest_path), "--field", str(field)]
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ManifestError"
        assert str(field) in payload["message"]
        assert "overflow" in payload["message"]
        assert not (out / "spectrum.csv").exists()

    @pytest.mark.parametrize("command", ["analyze", "decode-test"])
    def test_overlong_field_is_a_json_error(self, tiny_manifest_path, tmp_path, capsys, command):
        # One data row more than the longest field that `optimize` may write.
        field = tmp_path / "long.csv"
        write_field_csv(field, PulseGrid.zeros(0.0, 413.41, MAX_PULSE_STEPS + 2))
        argv = [command, "--manifest", str(tiny_manifest_path), "--field", str(field)]
        code = main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        payload = json.loads(line)
        assert set(payload) == {"error", "message"}
        assert payload["error"] == "ManifestError"
        assert str(field) in payload["message"]
        assert str(MAX_PULSE_STEPS + 1) in payload["message"]

    def test_field_length_limit_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rydoct.manifest, "MAX_PULSE_STEPS", 9)
        field = tmp_path / "field.csv"
        write_field_csv(field, PulseGrid.zeros(0.0, 1.0, 10))
        assert len(read_field_csv(field).samples) == 10
        write_field_csv(field, PulseGrid.zeros(0.0, 1.0, 11))
        with pytest.raises(ManifestError, match="11 data rows, more than the limit of 10"):
            read_field_csv(field)

    def test_non_finite_value_rejected(self, tmp_path):
        field = tmp_path / "nan.csv"
        field.write_text("time,E\n0.0,1.0\n1.0,nan\n2.0,0.0\n")
        with pytest.raises(ManifestError, match="line 3"):
            read_field_csv(field)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, width=64), min_size=2, max_size=40))
    def test_median_has_numpys_bits(self, values):
        # One count of each parity: the middle value, and two added and halved.
        for steps in (np.array(values), np.array(values[1:])):
            with np.errstate(over="ignore"):
                expected, median = np.median(steps), _median(steps)
            assert np.float64(median).tobytes() == expected.tobytes(), steps

    @settings(max_examples=60, deadline=None)
    @given(
        dt=st.floats(min_value=1e-6, max_value=1e6),
        start_steps=st.integers(min_value=-(10**9), max_value=10**9),
        samples=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=2, max_size=3000
        ),
    )
    def test_every_written_field_is_read_back(self, tmp_path_factory, dt, start_steps, samples):
        pulse = PulseGrid(t0=start_steps * dt, dt=dt, samples=np.array(samples))
        path = tmp_path_factory.mktemp("field") / "field.csv"
        write_field_csv(path, pulse)
        back = read_field_csv(path)
        times = pulse.times()
        assert back.t0 == pulse.t0
        assert back.dt == times[1] - times[0]
        assert np.array_equal(back.samples, pulse.samples)


def _run_cli(args, cwd, threads=None, cache=None):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    if cache is not None:
        env["XDG_CACHE_HOME"] = str(cache)
    if threads is not None:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = str(threads)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600
    )


def _cache_stamps(cache: Path) -> dict[str, int]:
    """Modification time of each entry of a basis cache: a run that reads an
    entry leaves its time as it was, one that rebuilds it writes a new file."""
    return {p.name: p.stat().st_mtime_ns for p in (cache / "rydoct").iterdir()}


class TestProcess:
    def test_cli_import_leaves_scipy_optimize_out(self, tmp_path):
        probe = "import sys, rydoct.cli; print('scipy.optimize' in sys.modules)"
        run = _run_cli(["-c", probe], tmp_path)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_only_the_cli_freezes_its_importer(self, tmp_path):
        # Importing rydoct.cli freezes the objects made so far, so that a
        # command's process skips their teardown at exit; the library
        # leaves its importer's collector alone.
        probe = (
            "import gc, rydoct; before = gc.get_freeze_count(); "
            "import rydoct.cli; print(before, gc.get_freeze_count())"
        )
        run = _run_cli(["-c", probe], tmp_path)
        assert run.returncode == 0, run.stderr
        before, after = map(int, run.stdout.split())
        assert before == 0
        assert after > 0

    def test_reading_a_field_leaves_numpy_ma_out(self, tmp_path):
        # np.median would import numpy.ma, about 10 ms of every process
        # that reads a field.
        field = tmp_path / "field.csv"
        write_field_csv(field, PulseGrid.zeros(0.0, 10.0, 801))
        probe = (
            "import sys; from rydoct.manifest import read_field_csv; "
            f"read_field_csv({str(field)!r}); print('numpy.ma' in sys.modules)"
        )
        run = _run_cli(["-c", probe], tmp_path)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"

    def test_analyze_leaves_numpy_ma_out(self, tiny_manifest_path, tmp_path):
        # np.unique of the level gaps would import numpy.ma, 1.7 MB and
        # about 11 ms of every analyze process.
        field = tmp_path / "field.csv"
        write_field_csv(field, build_guess_pulse(load_manifest(tiny_manifest_path)))
        argv = ["analyze", "--manifest", str(tiny_manifest_path), "--field", str(field)]
        argv += ["--out", str(tmp_path / "ana")]
        probe = (
            "import sys, rydoct.cli; "
            f"code = rydoct.cli.main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
        )
        run = _run_cli(["-c", probe], tmp_path)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split()[-2:] == ["0", "False"]
        assert (tmp_path / "ana" / "husimi.csv").exists()

    # One member (M = 1) and four (M = 4) reach BLAS with different shapes.
    # After each run, `analyze` and `decode-test` read the field it wrote, and
    # `propagate` runs the manifest's guess, all at the same thread count.
    @pytest.mark.parametrize(
        "command, manifest_name, field_name, expected_files",
        [
            (
                "optimize-universal",
                "universal.json",
                "universal_field.csv",
                {"decode_test.json", "history.csv", "summary.json", "universal_field.csv"},
            ),
            (
                "optimize",
                "single_target.json",
                "optimized_field.csv",
                {
                    "guess_field.csv",
                    "history.csv",
                    "optimized_field.csv",
                    "readout.json",
                    "summary.json",
                },
            ),
        ],
        ids=["optimize-universal", "optimize"],
    )
    def test_universal_outputs_independent_of_blas_threads(
        self, tmp_path, command, manifest_name, field_name, expected_files
    ):
        manifest = json.loads((MANIFEST_DIR / manifest_name).read_text())
        manifest["oct"]["max_iterations"] = 10
        path = tmp_path / "manifest10.json"
        path.write_text(json.dumps(manifest))
        # Each thread count builds its basis in its own empty cache; the
        # last run reads the 1-thread run's cache.
        steps = (command, "analyze", "decode-test", "propagate")
        outputs, stamps = {}, {}
        for threads, cache in ((1, "cache1"), (2, "cache2"), ("warm", "cache1")):
            out = tmp_path / f"threads{threads}"
            for name in steps:
                args = ["-m", "rydoct.cli", name, "--manifest", str(path)]
                args += ["--out", str(out / name)]
                if name in ("analyze", "decode-test"):
                    args += ["--field", str(out / command / field_name)]
                run = _run_cli(
                    args,
                    tmp_path,
                    threads=1 if threads == "warm" else threads,
                    cache=tmp_path / cache,
                )
                assert run.returncode == 0, run.stderr
            outputs[threads] = {
                p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
            stamps[threads] = _cache_stamps(tmp_path / cache)
        assert stamps["warm"] == stamps[1]
        assert {p.name for p in (tmp_path / "threads1" / command).iterdir()} == expected_files
        assert {p.parts[0] for p in outputs[1]} == set(steps)
        assert set(outputs[2]) == set(outputs["warm"]) == set(outputs[1])
        for name, content in outputs[1].items():
            assert outputs[2][name] == content, name
            assert outputs["warm"][name] == content, name

    def test_optimize_187_outputs_independent_of_blas_threads(self, tmp_path):
        # 187 states take the parity-block step on the SVD eigensystem;
        # eigh of this z gave other bits under one and two threads.  Each
        # thread count builds its basis in its own empty cache.
        manifest = json.loads((MANIFEST_DIR / "single_target.json").read_text())
        manifest["basis"]["l_max"] = 17
        manifest["oct"]["max_iterations"] = 8
        path = tmp_path / "optimize187.json"
        path.write_text(json.dumps(manifest))
        outputs = {}
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            args = ["-m", "rydoct.cli", "optimize", "--manifest", str(path), "--out", str(out)]
            run = _run_cli(args, tmp_path, threads=threads, cache=tmp_path / f"cache{threads}")
            assert run.returncode == 0, run.stderr
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert json.loads(outputs[1]["summary.json"])["metrics"]["iterations"] == 8
        assert set(outputs[1]) == {
            "guess_field.csv",
            "history.csv",
            "optimized_field.csv",
            "readout.json",
            "summary.json",
        }
        for name, content in outputs[1].items():
            assert outputs[2][name] == content, name

    def test_basis_file_independent_of_blas_threads(self, tmp_path):
        # The dipoles are BLAS products; the 187-state file must not depend on
        # how many threads OpenBLAS splits them over.
        manifest = json.loads((MANIFEST_DIR / "single_target.json").read_text())
        manifest["basis"]["l_max"] = 17
        path = tmp_path / "basis187.json"
        path.write_text(json.dumps(manifest))
        # Each thread count builds in its own empty cache; the last run reads
        # the 1-thread run's cache entry.
        files, stamps = {}, {}
        for threads, cache in ((1, "cache1"), (2, "cache2"), ("warm", "cache1")):
            out = tmp_path / f"threads{threads}"
            args = ["-m", "rydoct.cli", "basis", "--manifest", str(path), "--out", str(out)]
            run = _run_cli(
                args, tmp_path, threads=2 if threads == "warm" else threads, cache=tmp_path / cache
            )
            assert run.returncode == 0, run.stderr
            files[threads] = (out / "hamiltonian.txt").read_bytes()
            stamps[threads] = _cache_stamps(tmp_path / cache)
        assert stamps["warm"] == stamps[1]
        assert json.loads((tmp_path / "threads1" / "summary.json").read_text())["metrics"][
            "basis_size"
        ] == 187
        assert files[1] == files[2] == files["warm"]
