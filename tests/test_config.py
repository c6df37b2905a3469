"""The configuration key table stays in step with the library and README."""

import re
from pathlib import Path

import pytest

from sigblock.config import _SECTION_KEYS, RunConfig, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def _readme_table_keys() -> list[str]:
    """``section.key`` names in the configuration table's key column.

    A bare name after a dotted one (``training.batch_size`` /
    ``learning_rate``) belongs to the same section."""
    keys = []
    for line in _readme_section("Configuration").splitlines():
        if not line.startswith("| `"):
            continue
        section = None
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            if "." in name:
                section, _ = name.split(".", 1)
                keys.append(name)
            else:
                keys.append(f"{section}.{name}")
    return keys


def _readme_run_ini() -> str:
    match = re.search(r"cat > run\.ini <<'EOF'\n(.*?)\nEOF\n", README.read_text("utf-8"), re.S)
    assert match, "README has no run.ini example"
    return match.group(1)


@pytest.mark.parametrize("section_key", sorted(_SECTION_KEYS))
def test_every_key_path_resolves_on_a_fresh_config(section_key):
    path, _ = _SECTION_KEYS[section_key]
    target = RunConfig()
    for name in path.split("."):
        assert hasattr(target, name), f"{'.'.join(section_key)} -> {path}: no field {name!r}"
        target = getattr(target, name)


def test_readme_table_keys_load():
    keys = _readme_table_keys()
    assert len(keys) >= 20
    # "1" parses as every kind of value: text, integer, float and list
    load_config(None, [f"{key}=1" for key in keys])


def test_readme_run_ini_loads(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(_readme_run_ini(), encoding="utf-8")
    config = load_config(ini)
    assert config.training.embedding_dim == 32 and config.lsh.seed == 2


def test_blank_primary_attribute_is_none():
    assert load_config(None, ["model.primary_attribute="]).training.primary_attribute is None


def test_rho_key_sets_an_override():
    config = load_config(None, ["model.rho_title=0.5"])
    assert config.training.rho_overrides == {"title": 0.5}
    assert RunConfig().training.rho_overrides == {}


def test_leading_byte_order_mark_is_ignored(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[lsh]\nseed = 7\n", encoding="utf-8-sig")
    assert load_config(ini).lsh.seed == 7
