"""JSON interchange round-trip tests."""

import json

import pytest

from repro.sysml import (load_model, model_from_dict, model_from_json,
                         model_to_dict, model_to_json, print_model,
                         validate_model)
from repro.sysml.errors import SysMLError
from repro.sysml.interchange import element_from_dict, element_to_dict


class TestSerialization:
    def test_model_to_dict_shape(self, emco_model):
        data = model_to_dict(emco_model)
        assert data["@type"] == "Model"
        names = [e.get("name") for e in data["ownedElements"]]
        assert "ISA95" in names
        assert "ICETopology" in names

    def test_definition_fields(self, emco_model):
        data = element_to_dict(emco_model.find("EMCO::EMCODriver"))
        assert data["@type"] == "PartDefinition"
        assert data["kind"] == "part"
        assert data["specializes"] == ["MachineDriver"]
        assert data["isAbstract"] is False

    def test_usage_fields(self, emco_model):
        port = emco_model.find(
            "emcoDriver::emcoVariables::emcoAxesPositions"
            "::pp_actual_X_EMCOVar")
        data = element_to_dict(port)
        assert data["@type"] == "PortUsage"
        assert data["type"] == "EMCOVar"
        assert data["isConjugated"] is False

    def test_value_serialized(self, emco_model):
        params = emco_model.find("emcoDriver::emcoParameters")
        data = element_to_dict(params)
        ip_entry = next(e for e in data["ownedElements"]
                        if e.get("name") == "ip" or
                        e.get("redefines") == ["ip"])
        assert ip_entry["value"] == {"@type": "Literal",
                                     "value": "10.197.12.11"}

    def test_json_text_is_valid_json(self, emco_model):
        parsed = json.loads(model_to_json(emco_model))
        assert parsed["@type"] == "Model"


class TestRoundTrip:
    def test_dict_roundtrip_is_stable(self, emco_model):
        data = model_to_dict(emco_model)
        rebuilt = model_from_dict(data)
        assert model_to_dict(rebuilt) == data

    def test_json_roundtrip_is_stable(self, emco_model):
        text = model_to_json(emco_model)
        rebuilt = model_from_json(text)
        assert model_to_json(rebuilt) == text

    def test_rebuilt_model_resolves_and_validates(self, emco_model):
        rebuilt = model_from_dict(model_to_dict(emco_model))
        assert validate_model(rebuilt).ok

    def test_rebuilt_model_prints_identically(self, emco_model):
        rebuilt = model_from_dict(model_to_dict(emco_model))
        assert print_model(rebuilt) == print_model(emco_model)

    def test_multiplicity_roundtrip(self):
        model = load_model("""
            abstract part def Machine;
            part def Cell { ref part machines : Machine [2..*]; }
        """)
        rebuilt = model_from_dict(model_to_dict(model))
        machines = rebuilt.find("Cell::machines")
        assert machines.multiplicity.lower == 2
        assert machines.multiplicity.upper is None

    def test_unresolved_rebuild_possible(self, emco_model):
        # resolve=False defers linking, e.g. for partial transfers
        rebuilt = model_from_dict(model_to_dict(emco_model), resolve=False)
        emco = rebuilt.find("EMCO::EMCODriver")
        assert emco.specializations == []


def nested_packages_json(depth):
    """*depth* packages, each owning the next, as model JSON text."""
    opening = "".join(f'{{"@type": "Package", "name": "P{index}", '
                      f'"ownedElements": [' for index in range(depth))
    return '{"ownedElements": [' + opening + "]}" * depth + "]}"


class TestErrors:
    @pytest.mark.parametrize("text,message", [
        ('{"ownedElements": [', "invalid JSON model"),
        (nested_packages_json(500), "nested too deeply"),
        (nested_packages_json(400), "nest more than 128 bodies"),
        (json.dumps({"ownedElements": [{"@type": "Alias", "name": "a"}]}),
         "KeyError: 'aliasOf'"),
        (json.dumps({"ownedElements": [
            {"@type": "Alias", "name": "a", "aliasOf": 5}]}),
         "AttributeError"),
        (json.dumps({"ownedElements": [{"@type": "PartUsage",
                                        "kind": "part", "name": "p",
                                        "multiplicity": {"lower": 1}}]}),
         "KeyError: 'upper'"),
        (json.dumps({"ownedElements": ["P"]}), "AttributeError"),
        ("[]", "AttributeError"),
    ], ids=["truncated", "json-500-deep", "elements-400-deep",
            "missing-aliasOf", "ill-typed-aliasOf", "missing-upper",
            "element-not-an-object", "model-not-an-object"])
    def test_bad_input_is_a_sysml_error(self, text, message):
        with pytest.raises(SysMLError, match=message):
            model_from_json(text)

    def test_nesting_at_the_text_limit_loads(self):
        model = model_from_json(nested_packages_json(128))
        assert model.find("::".join(f"P{i}" for i in range(128)))

    def test_unknown_type_rejected(self):
        with pytest.raises(SysMLError):
            element_from_dict({"@type": "Banana"})

    def test_unknown_usage_kind_rejected(self):
        with pytest.raises(SysMLError):
            element_from_dict({"@type": "PartUsage", "kind": "banana"})
