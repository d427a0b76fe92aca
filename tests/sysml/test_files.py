"""Model file I/O tests (.sysml and .json round trips)."""

import pytest

from repro.sysml import (SysMLError, convert_model_file, load_model_file,
                        model_to_dict, save_model_file)

SOURCE = """
package Lib {
    part def Machine { attribute speed : Real; }
}
part m : Lib::Machine { :>> speed = 4.5; }
"""


@pytest.fixture
def sysml_file(tmp_path):
    path = tmp_path / "factory.sysml"
    path.write_text(SOURCE)
    return path


class TestLoad:
    def test_load_sysml(self, sysml_file):
        model = load_model_file(sysml_file)
        assert model.find("m").typ.qualified_name == "Lib::Machine"

    def test_load_reports_filename_in_errors(self, tmp_path):
        bad = tmp_path / "broken.sysml"
        bad.write_text("part x : Missing;")
        with pytest.raises(SysMLError) as exc:
            load_model_file(bad)
        assert "broken.sysml" in str(exc.value)

    def test_unknown_suffix(self, tmp_path):
        weird = tmp_path / "model.xml"
        weird.write_text("<model/>")
        with pytest.raises(SysMLError, match="suffix"):
            load_model_file(weird)


class TestSaveAndConvert:
    def test_save_sysml_excludes_stdlib(self, sysml_file, tmp_path):
        model = load_model_file(sysml_file)
        out = tmp_path / "out.sysml"
        save_model_file(model, out)
        text = out.read_text()
        assert "package ScalarValues" not in text
        assert "part def Machine" in text

    def test_save_sysml_with_library(self, sysml_file, tmp_path):
        model = load_model_file(sysml_file)
        out = tmp_path / "full.sysml"
        save_model_file(model, out, include_library=True)
        assert "package ScalarValues" in out.read_text()

    def test_save_and_reload_json(self, sysml_file, tmp_path):
        model = load_model_file(sysml_file)
        out = tmp_path / "model.json"
        save_model_file(model, out)
        reloaded = load_model_file(out)
        assert model_to_dict(reloaded) == model_to_dict(model)

    def test_convert_text_to_json_to_text(self, sysml_file, tmp_path):
        json_path = tmp_path / "m.json"
        convert_model_file(sysml_file, json_path)
        text_path = tmp_path / "back.sysml"
        convert_model_file(json_path, text_path)
        model = load_model_file(text_path)
        assert model.find("m").member("speed").value.value == 4.5
